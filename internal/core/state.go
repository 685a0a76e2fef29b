package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// ErrSnapshot reports a snapshot payload ParseSnapshot cannot read.
var ErrSnapshot = errors.New("core: malformed snapshot payload")

// snapshotFormat is the first byte of every snapshot payload. A payload
// that opens with '{' is the SessionSnapshot JSON written before the
// binary format, which is refused (DESIGN.md §9).
const snapshotFormat = 1

// AppendSnapshot appends the snapshot payload of s, a session NewSession
// built, to dst and returns it with the round watermark it covers: the
// SessionSnapshot's counters and raw digest, then the session state the
// driver and the engine leave at a play boundary (appendState). Counters,
// digest and state are read under one hold of the play lock.
func AppendSnapshot(dst []byte, s Session) ([]byte, int) {
	d := s.(*driver)
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.statsLocked()
	dst = appendInts(append(dst, snapshotFormat), []int{int(st.Kind), st.Players, st.Rounds, st.Fouls, st.Convictions})
	dst = appendFloats(appendBool(dst, d.closed), st.CumulativeCost)
	for _, x := range st.Excluded {
		dst = appendBool(dst, x)
	}
	sum := d.digestLocked()
	return d.appendState(append(dst, sum[:]...)), st.Rounds
}

// ParseSnapshot reads a payload AppendSnapshot wrote: the SessionSnapshot
// it describes, and its state (empty when it carries none), a sub-slice
// of b that RestoreTarget.State takes. The snapshot shares no memory with
// b.
func ParseSnapshot(b []byte) (SessionSnapshot, []byte, error) {
	var snap SessionSnapshot
	if len(b) > 0 && b[0] == '{' {
		return snap, nil, fmt.Errorf("%w: a JSON payload, written before the binary snapshot format", ErrSnapshot)
	}
	if len(b) == 0 || b[0] != snapshotFormat {
		return snap, nil, fmt.Errorf("%w: unknown format", ErrSnapshot)
	}
	r := stateReader{b: b[1:]}
	snap.Kind = SessionKind(r.int())
	snap.Players = r.count(9) // its cost and its exclusion
	snap.Rounds, snap.Fouls, snap.Convictions = r.int(), r.int(), r.int()
	snap.Closed = r.bool()
	snap.CumulativeCost = make([]float64, snap.Players)
	r.floats(snap.CumulativeCost)
	snap.Excluded = make([]bool, snap.Players)
	for i := range snap.Excluded {
		snap.Excluded[i] = r.bool()
	}
	sum := r.bytes(sha256.Size)
	if r.err != nil {
		return SessionSnapshot{}, nil, fmt.Errorf("%w: %v", ErrSnapshot, r.err)
	}
	snap.Digest = hex.EncodeToString(sum)
	return snap, r.b, nil
}

// appendState appends the session state (see AppendSnapshot): what the
// counters before it do not already say. That is the history ring's rows
// and the engine's own state; the caller holds the play lock. It appends
// nothing when the engine has no codec, and nothing for an unbounded
// history: that state grows with the session's age, and every compaction
// would rewrite it, so such a session restores by replay.
func (d *driver) appendState(dst []byte) []byte {
	e, ok := d.eng.(stateCodec)
	if !ok || d.history.limit == 0 {
		return dst
	}
	start := len(dst)
	if dst, ok = e.appendState(d.history.appendRows(dst)); ok {
		return dst
	}
	return dst[:start]
}

// load parses a state appendState wrote into a session NewSession has
// just built, taking the counters, the closed flag and the cumulative
// costs from base, the snapshot that carried the state, and checks that
// the loaded session's digest is base's. Nothing it loads aliases state.
func (d *driver) load(state []byte, base SessionSnapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := stateReader{b: state}
	e, ok := d.eng.(stateCodec)
	switch {
	case !ok:
		r.fail("a %s session has no state codec", d.kind)
	case d.history.limit == 0:
		r.fail("a session of unbounded history restores by replay")
	case base.Kind != d.kind || len(base.CumulativeCost) != d.n:
		r.fail("a snapshot of a %d-player %s session", len(base.CumulativeCost), base.Kind)
	}
	d.fouls, d.convictions, d.closed = base.Fouls, base.Convictions, base.Closed
	rounds := base.Rounds
	if r.err == nil {
		d.history.parseRows(&r, d.n, rounds)
	}
	if r.err == nil {
		var prev game.Profile
		if last, ok := d.history.at(rounds - 1); ok {
			prev = last.Outcome
		}
		e.parseState(&r, rounds, prev, base.CumulativeCost)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the state", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("%w: state at round %d: %v", ErrRestore, rounds, r.err)
	}
	var got [HashLen]byte
	sum := d.digestLocked()
	if hex.Encode(got[:], sum[:]); string(got[:]) != base.Digest {
		return fmt.Errorf("%w: the state loaded at round %d has digest %s, its snapshot %s",
			ErrRestore, rounds, got[:], base.Digest)
	}
	return nil
}

// appendRows appends the ring's rows as they lie: outcomes, costs and,
// when the ring has side slots, each slot's pulse, fouls, convicted and
// excluded agents. The play count is the snapshot's.
func (r *historyRing) appendRows(dst []byte) []byte {
	dst = appendFloats(appendInts(dst, r.outcomes), r.costs)
	dst = appendBool(dst, r.side != nil)
	for _, s := range r.side {
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(s.pulse)), uint64(len(s.fouls)))
		for _, f := range s.fouls {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(f.Agent)), uint64(f.Reason))
			dst = append(binary.AppendUvarint(dst, uint64(len(f.Detail))), f.Detail...)
		}
		dst = appendInts(binary.AppendUvarint(dst, uint64(len(s.convicted))), s.convicted)
		dst = appendInts(binary.AppendUvarint(dst, uint64(len(s.excluded))), s.excluded)
	}
	return dst
}

// parseRows loads rows appendRows wrote, n wide, for a session of total
// plays into an empty bounded ring of the same limit, sizing its arrays
// once, to the rows it retains.
func (r *historyRing) parseRows(sr *stateReader, n, total int) {
	r.total, r.n, r.next = total, n, total%r.limit
	rows := r.retained()
	if rows > len(sr.b)/(9*n) { // a row is at least 9 bytes a player
		sr.fail("%d rows in %d bytes", rows, len(sr.b))
		return
	}
	r.outcomes, r.costs = make(game.Profile, rows*n), make([]float64, rows*n)
	sr.ints(r.outcomes)
	sr.floats(r.costs)
	if sr.bool() {
		r.side = make([]sideSlot, rows)
	}
	for i := range r.side {
		s := &r.side[i]
		s.pulse = sr.int()
		if c := sr.count(3); c > 0 {
			s.fouls = make([]audit.Foul, c)
			for j := range s.fouls {
				s.fouls[j] = audit.Foul{Agent: sr.int(), Reason: audit.Reason(sr.int())}
				s.fouls[j].Detail = string(sr.bytes(sr.count(1)))
			}
		}
		s.convicted, s.excluded = sr.list(), sr.list()
	}
}

// stateReader reads a state's fields in order. The first malformed field
// sets err, and every later read returns a zero value.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// int reads a uvarint that fits an int.
func (r *stateReader) int() int {
	v, k := binary.Uvarint(r.b)
	if k <= 0 || v > math.MaxInt {
		r.fail("malformed count")
		return 0
	}
	r.b = r.b[k:]
	return int(v)
}

// count reads a length prefix whose elements take at least size bytes
// each, refusing one the remaining bytes cannot hold.
func (r *stateReader) count(size int) int {
	c := r.int()
	if c > len(r.b)/max(size, 1) {
		r.fail("%d elements in %d bytes", c, len(r.b))
		return 0
	}
	return c
}

// bool reads what appendBool wrote: a one-byte uvarint, 0 or 1.
func (r *stateReader) bool() bool { return r.int() == 1 }

// bytes reads n bytes, a sub-slice of the state.
func (r *stateReader) bytes(n int) []byte {
	if len(r.b) < n {
		r.fail("cut short")
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// floats fills dst with float bits.
func (r *stateReader) floats(dst []float64) {
	for i := range dst {
		if b := r.bytes(8); b != nil {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
}

// ints fills dst with uvarints.
func (r *stateReader) ints(dst []int) {
	for i := range dst {
		dst[i] = r.int()
	}
}

// list reads a counted list of ints.
func (r *stateReader) list() []int {
	out := make([]int, r.count(1))
	r.ints(out)
	return out
}

// ledger reads a scheme's ledger (punish.AppendLedger) into scheme.
func (r *stateReader) ledger(scheme punish.Scheme) {
	rest, err := punish.ParseLedger(r.b, scheme)
	if r.b = rest; err != nil {
		r.fail("%v", err)
	}
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

func appendInts(dst []byte, xs []int) []byte {
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
}
