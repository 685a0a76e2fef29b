package punish

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrLedger reports a ledger encoding that does not fit the scheme it is
// parsed into.
var ErrLedger = errors.New("punish: malformed ledger")

// ledgerOf returns a scheme's tag in the ledger encoding and the slices
// its ledger lives in: the per-agent value (Disconnect's strikes,
// Reputation's score, Deposit's balance) and the event history. ok is
// false for a scheme this package does not implement.
func ledgerOf(s Scheme) (tag byte, values []float64, events *[]Event, ok bool) {
	switch s := s.(type) {
	case nil:
		return 0, nil, new([]Event), true
	case *Disconnect:
		return 1, s.strikes, &s.events, true
	case *Reputation:
		return 2, s.score, &s.events, true
	case *Deposit:
		return 3, s.balance, &s.events, true
	}
	return 0, nil, nil, false
}

// AppendLedger appends s's ledger to dst in its canonical encoding: a tag
// naming the scheme, the agent count, each agent's value as float bits,
// then the event history (agent, round, severity bits). The parameters
// (budget, decay, escrow, ...) are not part of it: they come with the
// scheme the ledger is parsed into. ok is false, and dst unchanged, for a
// scheme this package does not implement.
func AppendLedger(dst []byte, s Scheme) (_ []byte, ok bool) {
	tag, values, events, ok := ledgerOf(s)
	if !ok {
		return dst, false
	}
	dst = binary.AppendUvarint(append(dst, tag), uint64(len(values)))
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(*events)))
	for _, e := range *events {
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(e.Agent)), uint64(e.Round))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Severity))
	}
	return dst, true
}

// ParseLedger parses a ledger AppendLedger wrote into s, a scheme of the
// same kind and agent count, and returns the bytes after it. s keeps
// nothing of b.
func ParseLedger(b []byte, s Scheme) ([]byte, error) {
	tag, values, events, ok := ledgerOf(s)
	if !ok || len(b) == 0 || b[0] != tag {
		return nil, fmt.Errorf("%w: not a ledger of the session's scheme", ErrLedger)
	}
	n, b := uvarint(b[1:])
	if n != uint64(len(values)) || uint64(len(b)) < 8*n {
		return nil, fmt.Errorf("%w: a ledger of %d agents for a scheme of %d", ErrLedger, n, len(values))
	}
	for i := range values {
		values[i], b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
	}
	count, b := uvarint(b)
	if count > uint64(len(b))/10 { // an event is at least 10 bytes
		return nil, fmt.Errorf("%w: %d events in %d bytes", ErrLedger, count, len(b))
	}
	*events = nil
	for i := uint64(0); i < count; i++ {
		agent, b1 := uvarint(b)
		round, b2 := uvarint(b1)
		if agent >= n || round > math.MaxInt || len(b2) < 8 {
			return nil, fmt.Errorf("%w: event %d", ErrLedger, i)
		}
		*events = append(*events, Event{Agent: int(agent), Round: int(round), Severity: math.Float64frombits(binary.LittleEndian.Uint64(b2))})
		b = b2[8:]
	}
	return b, nil
}

// uvarint reads one uvarint off b. A malformed one reads as the largest
// value and leaves nothing, which every caller's bound check refuses.
func uvarint(b []byte) (uint64, []byte) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return math.MaxUint64, nil
	}
	return v, b[k:]
}
