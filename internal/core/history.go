package core

import (
	"gameauthority/internal/audit"
	"gameauthority/internal/game"
)

// historyRing stores a session's completed plays as flat rows, each the n
// outcomes and n costs of one play; a play's round is derived from its row.
// Unbounded (limit 0) the rows grow like a plain slice. Bounded, round r
// lives in row r % limit, and the rows double up to limit × n and are never
// reallocated after, so a full ring records without allocating. A play's
// pulse, fouls, convictions and exclusions go in a per-row side slot,
// allocated once a play first carries one (a distributed play's pulse, a
// deviant's foul): an honest pure session has none. Rows are reused in
// place: a view from at or record aliases ring memory until its round is
// evicted, and snapshot deep-clones.
type historyRing struct {
	limit    int // 0 = unbounded
	n        int // row width: the player count, fixed by the first record
	outcomes game.Profile
	costs    []float64
	side     []sideSlot // nil until a play needs it; then one per stored row
	total    int        // plays ever recorded
	next     int        // the row of the next record: total % limit, kept without dividing
}

// sideSlot holds the parts of a play that an honest pure play leaves empty.
type sideSlot struct {
	pulse     int
	fouls     []audit.Foul
	convicted []int
	excluded  []int
}

// retained returns how many plays the ring currently holds.
func (r *historyRing) retained() int {
	if r.limit > 0 {
		return min(r.total, r.limit)
	}
	return r.total
}

// recorded returns how many plays were ever recorded.
func (r *historyRing) recorded() int { return r.total }

// firstRetained returns the absolute round index of the oldest retained
// play.
func (r *historyRing) firstRetained() int { return r.total - r.retained() }

// row returns the row of a retained round (round % limit when bounded).
func (r *historyRing) row(round int) int {
	i := r.next - (r.total - round)
	if i < 0 {
		i += r.limit
	}
	return i
}

// at returns a view of the retained play with the absolute round index
// round, its empty slices nil, or false when the play was evicted or not
// yet played.
func (r *historyRing) at(round int) (RoundResult, bool) {
	if round < r.firstRetained() || round >= r.total {
		return RoundResult{}, false
	}
	return r.view(r.row(round), round), true
}

// view returns the play of the given round, stored in row i.
func (r *historyRing) view(i, round int) RoundResult {
	lo, hi := i*r.n, (i+1)*r.n
	res := RoundResult{Round: round, Outcome: orNil(r.outcomes[lo:hi:hi]), Costs: orNil(r.costs[lo:hi:hi])}
	if r.side != nil {
		s := &r.side[i]
		res.Pulse, res.Verdict.Fouls = s.pulse, orNil(s.fouls)
		res.Convicted, res.Excluded = orNil(s.convicted), orNil(s.excluded)
	}
	return res
}

// sideOf returns row i's side slot, allocating the side array on first use.
func (r *historyRing) sideOf(i int) *sideSlot {
	if r.side == nil {
		r.side = make([]sideSlot, r.retained())
	}
	return &r.side[i]
}

// record stores a finished play, n wide in Outcome and Costs, in the next
// row (evicting the oldest retained play when the ring is bounded and
// full) and returns a view of it. The ring keeps none of res's slices.
func (r *historyRing) record(res *RoundResult) RoundResult {
	if r.total == 0 {
		r.n = len(res.Outcome)
	}
	i, n := r.next, r.n
	if grow := r.limit == 0 || r.total < r.limit; grow {
		r.outcomes = extend(r.outcomes, n, r.limit*n)
		r.costs = extend(r.costs, n, r.limit*n)
		if r.side != nil {
			r.side = extend(r.side, 1, r.limit)
		}
	}
	r.total++
	if r.next++; r.next == r.limit {
		r.next = 0
	}
	copy(r.outcomes[i*n:(i+1)*n], res.Outcome)
	copy(r.costs[i*n:(i+1)*n], res.Costs)
	if r.side != nil || res.Pulse != 0 || len(res.Verdict.Fouls)+len(res.Convicted)+len(res.Excluded) > 0 {
		s := r.sideOf(i)
		s.pulse = res.Pulse
		s.fouls = append(s.fouls[:0], res.Verdict.Fouls...)
		s.convicted = append(s.convicted[:0], res.Convicted...)
		s.excluded = append(s.excluded[:0], res.Excluded...)
	}
	return r.view(i, r.total-1)
}

// fold appends close-time fouls to the last recorded play, re-derives its
// convicted set from all its fouls, and returns a view of it.
func (r *historyRing) fold(fouls []audit.Foul) RoundResult {
	i := r.row(r.total - 1)
	s := r.sideOf(i)
	s.fouls = append(s.fouls, fouls...)
	s.convicted = audit.Verdict{Fouls: s.fouls}.AppendGuilty(s.convicted[:0])
	return r.view(i, r.total-1)
}

// extend lengthens s by k zero elements, doubling its capacity when it
// must grow, but never past limit (0 = no bound).
func extend[T any](s []T, k, limit int) []T {
	if len(s)+k > cap(s) {
		c := max(2*cap(s), len(s)+k)
		if limit > 0 {
			c = min(c, limit)
		}
		s = append(make([]T, 0, c), s...)
	}
	return s[:len(s)+k]
}

// snapshot deep-clones the retained plays, oldest first. The clones share
// no memory with the ring, so callers may hold them across evictions.
func (r *historyRing) snapshot() []RoundResult {
	if r.retained() == 0 {
		return nil
	}
	out := make([]RoundResult, r.retained())
	for i := range out {
		v, _ := r.at(r.firstRetained() + i)
		out[i] = cloneResult(&v)
	}
	return out
}

// cloneResult deep-clones a play into an independent RoundResult.
func cloneResult(s *RoundResult) RoundResult {
	res := *s
	res.Outcome, res.Costs = clone(s.Outcome), clone(s.Costs)
	res.Verdict = audit.Verdict{Fouls: clone(s.Verdict.Fouls)}
	res.Convicted, res.Excluded = clone(s.Convicted), clone(s.Excluded)
	return res
}

// clone copies s into memory of its own; an empty s clones to nil.
func clone[S ~[]E, E any](s S) S { return append(S(nil), s...) }

// orNil returns s, or nil when s is empty: the shape of a view's empty
// fields, as of a clone's.
func orNil[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}
