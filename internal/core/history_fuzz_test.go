package core

import (
	"reflect"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
)

// normalized is the shape a ring view must have: a deep copy of the
// recorded play with empty slices as nil.
func normalized(res RoundResult) RoundResult { return res.Clone() }

// ringModel drives a historyRing and a plain []RoundResult side by side.
type ringModel struct {
	t      *testing.T
	r      historyRing
	limit  int
	width  int
	plays  []RoundResult // every play ever recorded, deep copies
	views  []RoundResult // views handed out, valid until their round is evicted or amended
	snaps  [][2][]RoundResult
	stream []byte
}

// next consumes one byte of the op stream, or 0 past its end.
func (m *ringModel) next() byte {
	if len(m.stream) == 0 {
		return 0
	}
	b := m.stream[0]
	m.stream = m.stream[1:]
	return b
}

func (m *ringModel) first() int {
	if m.limit == 0 || len(m.plays) < m.limit {
		return 0
	}
	return len(m.plays) - m.limit
}

func (m *ringModel) fouls(k int) []audit.Foul {
	var out []audit.Foul
	for i := 0; i < k; i++ {
		b := m.next()
		out = append(out, audit.Foul{Agent: int(b) % m.width, Reason: audit.Reason(b%6 + 1)})
	}
	return out
}

func (m *ringModel) ints(k int) []int {
	var out []int
	for i := 0; i < k; i++ {
		out = append(out, int(m.next())%m.width)
	}
	return out
}

func (m *ringModel) record() {
	flags := m.next()
	res := RoundResult{Round: len(m.plays), Outcome: make(game.Profile, m.width), Costs: make([]float64, m.width)}
	for i := 0; i < m.width; i++ {
		b := m.next()
		res.Outcome[i] = int(b%5) - 1
		res.Costs[i] = float64(b) / 4
	}
	if flags&1 != 0 {
		res.Verdict.Fouls = m.fouls(int(flags>>4)%3 + 1)
	}
	if flags&2 != 0 {
		res.Convicted = m.ints(int(flags>>5)%3 + 1)
	}
	if flags&4 != 0 {
		res.Excluded = m.ints(int(flags>>6)%3 + 1)
	}
	if flags&8 != 0 {
		res.Pulse = int(m.next()) + 1
	}
	m.plays = append(m.plays, res.Clone())
	got := m.r.record(&res)
	// The ring must not alias its caller's buffers.
	for i := range res.Outcome {
		res.Outcome[i], res.Costs[i] = 99, 99
	}
	m.check(got, len(m.plays)-1, "record")
	m.views = append(m.views, got)
}

func (m *ringModel) lookup() {
	round := int(m.next())%(len(m.plays)+3) - 1
	got, ok := m.r.at(round)
	if want := round >= m.first() && round < len(m.plays); ok != want {
		m.t.Fatalf("limit %d: at(%d) found=%v with %d recorded, first retained %d", m.limit, round, ok, len(m.plays), m.first())
	}
	if ok {
		m.check(got, round, "at")
		m.views = append(m.views, got)
	}
}

func (m *ringModel) snapshot() {
	got := m.r.snapshot()
	var want []RoundResult
	for _, p := range m.plays[m.first():] {
		want = append(want, normalized(p))
	}
	if !reflect.DeepEqual(got, want) {
		m.t.Fatalf("limit %d: snapshot\n got %+v\nwant %+v", m.limit, got, want)
	}
	m.snaps = append(m.snaps, [2][]RoundResult{got, want})
}

func (m *ringModel) fold() {
	if len(m.plays) == 0 {
		return
	}
	fouls := m.fouls(int(m.next())%2 + 1)
	last := &m.plays[len(m.plays)-1]
	last.Verdict.Fouls = append(clone(last.Verdict.Fouls), fouls...)
	last.Convicted = last.Verdict.Guilty()
	m.r.fold(fouls)
	kept := m.views[:0]
	for _, v := range m.views {
		if v.Round != last.Round {
			kept = append(kept, v)
		}
	}
	m.views = kept
	got, _ := m.r.at(last.Round)
	m.check(got, last.Round, "fold")
}

// check compares a view with the model's play of that round.
func (m *ringModel) check(got RoundResult, round int, op string) {
	if want := normalized(m.plays[round]); !reflect.DeepEqual(got, want) {
		m.t.Fatalf("limit %d: %s view of round %d\n got %+v\nwant %+v", m.limit, op, round, got, want)
	}
}

// invariants checks the counters, every held view that is still retained,
// and every snapshot taken so far.
func (m *ringModel) invariants() {
	first := m.first()
	if m.r.recorded() != len(m.plays) || m.r.firstRetained() != first || m.r.retained() != len(m.plays)-first {
		m.t.Fatalf("limit %d: recorded=%d retained=%d first=%d, model %d plays from %d",
			m.limit, m.r.recorded(), m.r.retained(), m.r.firstRetained(), len(m.plays), first)
	}
	kept := m.views[:0]
	for _, v := range m.views {
		if v.Round >= first {
			m.check(v, v.Round, "held")
			kept = append(kept, v)
		}
	}
	m.views = kept
	for _, s := range m.snaps {
		if !reflect.DeepEqual(s[0], s[1]) {
			m.t.Fatalf("limit %d: a snapshot changed after later ring operations:\n got %+v\nwant %+v", m.limit, s[0], s[1])
		}
	}
}

// FuzzHistoryRing plays random sequences of records (with and without
// fouls, convictions, exclusions and a pulse), lookups, snapshots and
// close-time folds on a historyRing at limits 0, 1, 3 and 8, against a
// plain slice of every recorded play. Every view must equal the model's
// play with empty fields as nil; a snapshot must not change with later
// operations; and a view must stay intact until its round is evicted (or,
// for the last play, amended by a fold).
func FuzzHistoryRing(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 0, 4, 5, 6, 1, 0, 2, 3})
	f.Add([]byte{1, 0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 0, 1, 3, 0, 0x0f, 9, 9, 9, 9, 9, 9, 2, 7})
	f.Add([]byte{2, 0, 0x08, 1, 2, 3, 0, 0x00, 4, 5, 0, 0x06, 6, 7, 1, 0, 4, 1, 2, 3, 3, 2, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		width := int(ops[0]%4) + 1
		for _, limit := range []int{0, 1, 3, 8} {
			m := &ringModel{t: t, r: historyRing{limit: limit}, limit: limit, width: width, stream: ops[1:]}
			for len(m.stream) > 0 {
				switch m.next() % 5 {
				case 0, 1:
					m.record()
				case 2:
					m.lookup()
				case 3:
					m.snapshot()
				case 4:
					m.fold()
				}
				m.invariants()
			}
		}
	})
}
