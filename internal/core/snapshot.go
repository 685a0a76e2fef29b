package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// ErrRestore is returned by Restore when the replayed session does not
// match the recorded state — a play hash or the final state digest
// diverged, meaning the configuration, seed, or engine semantics changed
// since the state was journaled.
var ErrRestore = errors.New("core: restore verification failed")

// SessionSnapshot is a driver's durable state summary at a round boundary:
// its counters and its state digest. The snapshot payload a host persists
// (AppendSnapshot) carries these and, for the pure and RRA kinds of
// bounded history, the session state itself, so that Restore loads it and
// replays only the plays after it; the other sessions carry no state and
// restore by replaying every play, which is complete because every driver
// is deterministic in (configuration, seed): the per-round PRNG streams
// are derived from the round counter, so the round count *is* the stream
// position. Digest proves a restored session is byte-identical, and the
// counters let a store listing describe a session without reviving it.
type SessionSnapshot struct {
	Kind    SessionKind `json:"kind"`
	Players int         `json:"players"`
	// Rounds is the number of completed plays — the replay watermark.
	Rounds      int `json:"rounds"`
	Fouls       int `json:"fouls"`
	Convictions int `json:"convictions"`
	// CumulativeCost and Excluded mirror SessionStats at the snapshot.
	CumulativeCost []float64 `json:"cumulative_cost,omitempty"`
	Excluded       []bool    `json:"excluded,omitempty"`
	// Closed reports whether the session was closed when snapshotted (a
	// batched-audit mixed session audits its trailing epoch on close, so
	// closed state differs from open state at the same round).
	Closed bool `json:"closed"`
	// Digest is the canonical state digest: SHA-256 over the counters
	// above plus every retained play's transcript line. Two sessions with
	// equal digests hold byte-identical retained state.
	Digest string `json:"digest"`
}

// appendResultLine renders one play canonically (the same shape for every
// driver), so transcript hashes and state digests are stable across runs
// and processes. Floats use shortest round-trip form. The rendering is
// hand-rolled strconv rather than fmt: this line is hashed once per
// journaled play, and on a saturated single core the fmt state machine was
// a measurable slice of the durable write path. The byte shape is frozen —
// digests persisted in snapshots were computed over it (see
// TestResultLineCanonicalShape).
func appendResultLine(b []byte, res *RoundResult) []byte {
	b = append(b, "round="...)
	b = strconv.AppendInt(b, int64(res.Round), 10)
	b = append(b, " outcome="...)
	b = appendIntSlice(b, res.Outcome)
	b = append(b, " convicted="...)
	b = appendIntSlice(b, res.Convicted)
	b = append(b, " excluded="...)
	b = appendIntSlice(b, res.Excluded)
	b = append(b, " pulse="...)
	b = strconv.AppendInt(b, int64(res.Pulse), 10)
	b = append(b, " costs=["...)
	for i, c := range res.Costs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
	}
	b = append(b, "] fouls=["...)
	for i, f := range res.Verdict.Fouls {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(f.Agent), 10)
		b = append(b, ':')
		b = append(b, f.Reason.String()...)
	}
	b = append(b, ']', '\n')
	return b
}

// appendIntSlice renders an int slice exactly as fmt's %v would
// ("[1 2 3]", nil and empty both "[]"), keeping the transcript line
// byte-compatible with the formatting it previously used.
func appendIntSlice(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// HashLen is the length of a play's transcript hash: the hex digits of a
// SHA-256.
const HashLen = 2 * sha256.Size

// HashResult returns the canonical transcript hash of one play — the value
// the write-ahead log journals per play and recovery re-checks per
// replayed play. Its one allocation is the returned string.
func HashResult(res RoundResult) string {
	var digest [HashLen]byte
	return string(AppendHashResult(digest[:0], &res))
}

// AppendHashResult appends HashResult(*res), its HashLen hex digits, to
// dst. The line of a typical play fits a stack buffer, so it allocates
// only when dst must grow.
func AppendHashResult(dst []byte, res *RoundResult) []byte {
	var line [256]byte
	sum := sha256.Sum256(appendResultLine(line[:0], res))
	return hex.AppendEncode(dst, sum[:])
}

// Snapshot implements Session: the snapshot and its state digest, built
// from the session's stats and history ring.
func (d *driver) Snapshot() SessionSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.statsLocked()
	sum := d.digestLocked()
	return SessionSnapshot{
		Kind:           st.Kind,
		Players:        st.Players,
		Rounds:         st.Rounds,
		Fouls:          st.Fouls,
		Convictions:    st.Convictions,
		CumulativeCost: st.CumulativeCost,
		Excluded:       st.Excluded,
		Closed:         d.closed,
		Digest:         hex.EncodeToString(sum[:]),
	}
}

// digestLocked is the state digest, the one path behind Snapshot, a
// host's compaction (AppendSnapshot) and the check of a loaded state: a
// SHA-256 over a line of counters, cumulative costs and exclusions, then
// every retained play's transcript line. Each line is built with strconv
// in a stack buffer and the hash state lives on the stack, so it allocates
// nothing. The text is frozen: digests persisted in snapshots were
// computed over it (TestSessionStatsPinned pins it).
func (d *driver) digestLocked() [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	b := append(append(buf[:0], "kind="...), d.kind.String()...)
	b = strconv.AppendInt(append(b, " players="...), int64(d.n), 10)
	b = strconv.AppendInt(append(b, " rounds="...), int64(d.history.recorded()), 10)
	b = strconv.AppendInt(append(b, " fouls="...), int64(d.fouls), 10)
	b = strconv.AppendInt(append(b, " convictions="...), int64(d.convictions), 10)
	b = strconv.AppendBool(append(b, " closed="...), d.closed)
	b = append(b, "\ncum=["...)
	for i := 0; i < d.n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, d.eng.CumulativeCost(i), 'g', -1, 64)
	}
	b = append(b, "] excluded=["...)
	for i := 0; i < d.n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendBool(b, d.eng.Excluded(i))
	}
	h.Write(append(b, "]\n"...))
	first := d.history.firstRetained()
	for i := 0; i < d.history.retained(); i++ {
		res, _ := d.history.at(first + i)
		h.Write(appendResultLine(buf[:0], &res))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// RestoreTarget tells Restore where to start, how far to replay and what
// to verify.
type RestoreTarget struct {
	// Rounds is the journaled round count: Restore replays to it.
	Rounds int
	// Closed closes the restored session after replay, reproducing
	// close-time state transitions (trailing-epoch audits).
	Closed bool
	// Digest, when non-empty, is the expected state digest after replay
	// (and close, when Closed): the snapshot or close-record digest.
	Digest string
	// Hashes maps absolute round indices to expected transcript hashes
	// (the WAL tail); every replayed play with an entry is verified.
	Hashes map[int]string
	// State, when non-empty, is the session state a snapshot payload
	// carries, and Base the snapshot that carried it (ParseSnapshot):
	// Restore loads the state with Base's counters and cumulative costs,
	// checks that the loaded session's digest is Base.Digest, and replays
	// only the plays after Base.Rounds. Empty, replay starts at round
	// zero. A state holds what the engine and the scheme remember, not
	// what an agent does: see Restore.
	State []byte
	Base  SessionSnapshot
}

// restoreBudgetRetries bounds how many recoverable pulse-budget errors a
// single replayed play may absorb before restoration gives up on a wedged
// distributed configuration.
const restoreBudgetRetries = 1000

// Restore rebuilds a session from its configuration, loads the target's
// state when it carries one, and deterministically replays it from there
// to the target round count, verifying journaled play hashes along the way
// and the final state digest at the end. On success the returned session's
// retained state is byte-identical to the one that was journaled — the
// cross-driver determinism property the goldens pin is exactly what makes
// this sound, and a loaded state is held to its snapshot's digest before
// any play is replayed on it. Any verification mismatch closes the
// half-restored session and fails with ErrRestore.
//
// Loading a state requires agents that choose from the round and the
// previous outcome alone, as every catalog deviant does: a state does not
// hold an agent's memory of its own, so such an agent comes back with a
// fresh one. The digest cannot see that, and the tail's hashes see it
// only in the plays they cover; a restore whose tail is empty (after a
// graceful stop, which snapshots every session) checks nothing past the
// digest, and the session diverges in its next plays. For agents with
// memory, leave State empty: replay from round zero rebuilds it.
func Restore(ctx context.Context, cfg SessionConfig, target RestoreTarget) (Session, error) {
	if target.Rounds < 0 {
		return nil, fmt.Errorf("%w: negative replay target %d", ErrConfig, target.Rounds)
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (Session, error) {
		_ = s.Close()
		return nil, err
	}
	// The replay is one batch on one lent workspace, each play's hash
	// checked as it completes; a pulse-budget error ends a batch early and
	// the next one resumes it. rp is what the check updates.
	var rp struct {
		played, retries int
		mismatch        error
	}
	if len(target.State) > 0 {
		d := s.(*driver)
		if err := d.load(target.State, target.Base); err != nil {
			return fail(err)
		}
		rp.played = d.history.recorded()
	}
	hashes := target.Hashes
	check := func(res RoundResult) error {
		if want, ok := hashes[res.Round]; ok {
			var got [HashLen]byte // on the stack: only a mismatch builds a string
			if string(AppendHashResult(got[:0], &res)) != want {
				rp.mismatch = fmt.Errorf("%w: round %d replayed with hash %s, journal has %s",
					ErrRestore, res.Round, HashResult(res), want)
				return rp.mismatch
			}
		}
		rp.retries = 0 // the budget is per play; a long replay may absorb many
		rp.played++
		return nil
	}
	for rp.played < target.Rounds {
		_, err := s.PlayN(ctx, target.Rounds-rp.played, check)
		if rp.mismatch != nil {
			return fail(rp.mismatch)
		}
		if errors.Is(err, ErrPulseBudget) {
			// Documented-recoverable: the next batch keeps stepping the
			// network, and the pulse partition does not affect the state a
			// completed play leaves behind.
			if rp.retries++; rp.retries > restoreBudgetRetries {
				return fail(fmt.Errorf("%w: pulse budget exhausted %d times replaying round %d",
					ErrRestore, rp.retries, rp.played))
			}
			continue
		}
		if err != nil {
			return fail(fmt.Errorf("core: restore replay round %d: %w", rp.played, err))
		}
	}
	if target.Closed {
		if err := s.Close(); err != nil {
			return fail(fmt.Errorf("core: restore close: %w", err))
		}
	}
	if target.Digest != "" {
		if got := s.Snapshot().Digest; got != target.Digest {
			return fail(fmt.Errorf("%w: state digest %s after %d rounds, journal has %s",
				ErrRestore, got, target.Rounds, target.Digest))
		}
	}
	return s, nil
}
