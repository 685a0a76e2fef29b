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

// ledgerOf returns the ledger of a scheme this package implements, and an
// empty one for no scheme. ok is false for any other scheme, a type that
// wraps one of these included: what it keeps besides is not in the ledger.
func ledgerOf(s Scheme) (_ ledger, ok bool) {
	switch s := s.(type) {
	case nil:
		return ledger{}, true
	case *Disconnect:
		return s.ledger, true
	case *Reputation:
		return s.ledger, true
	case *Deposit:
		return s.ledger, true
	}
	return ledger{}, false
}

// AppendLedger appends s's ledger to dst in its canonical encoding: a tag
// naming the scheme, the agent count, then each agent's value as float
// bits. Its width depends on the agent count alone. The parameters
// (budget, decay, escrow, ...) are not part of it: they come with the
// scheme the ledger is parsed into. ok is false, and dst unchanged, for a
// scheme this package does not implement.
func AppendLedger(dst []byte, s Scheme) (_ []byte, ok bool) {
	l, ok := ledgerOf(s)
	if !ok {
		return dst, false
	}
	dst = binary.AppendUvarint(append(dst, l.tag), uint64(len(l.values)))
	for _, v := range l.values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, true
}

// ParseLedger parses a ledger AppendLedger wrote into s, a scheme of the
// same kind and agent count, and returns the bytes after it. s keeps
// nothing of b.
func ParseLedger(b []byte, s Scheme) ([]byte, error) {
	l, ok := ledgerOf(s)
	if !ok || len(b) == 0 || b[0] != l.tag {
		return nil, fmt.Errorf("%w: not a ledger of the session's scheme", ErrLedger)
	}
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || n != uint64(len(l.values)) || uint64(len(b)-1-k) < 8*n {
		return nil, fmt.Errorf("%w: a ledger of %d agents for a scheme of %d", ErrLedger, n, len(l.values))
	}
	b = b[1+k:]
	for i := range l.values {
		l.values[i], b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
	}
	return b, nil
}
