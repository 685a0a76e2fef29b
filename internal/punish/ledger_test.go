package punish

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestLedgerRoundTrip punishes each scheme 0, 5 and 500 times, appends
// its ledger and parses it into a fresh replica: the ledger must be
// exactly 1 + uvarint(n) + 8n bytes whatever the punishment count, the
// replica must hold the same standing and exclusions, and the bytes after
// the ledger must come back.
func TestLedgerRoundTrip(t *testing.T) {
	const n = 4
	width := 1 + len(binary.AppendUvarint(nil, n)) + 8*n
	for _, build := range []func() Scheme{
		func() Scheme { return NewDisconnect(n, 2) },
		func() Scheme { return NewReputation(n, 0.5, 0.3, 0.01) },
		func() Scheme { return NewDeposit(n, 3, 1) },
		nil,
	} {
		name := "none"
		if build != nil {
			name = build().Name()
		}
		t.Run(name, func(t *testing.T) {
			for _, punishments := range []int{0, 5, 500} {
				var s, fresh Scheme
				want := 1 + 1 // a tag and a zero agent count
				if build != nil {
					s, fresh, want = build(), build(), width
					for round := range punishments {
						if err := s.Punish([]int{1, 3, 1, 2, 1}[round%5], round, 0.5+0.25*float64(round%3)); err != nil {
							t.Fatal(err)
						}
					}
				}
				b, ok := AppendLedger([]byte("head"), s)
				if !ok {
					t.Fatal("AppendLedger refused a built-in scheme")
				}
				if got := len(b) - len("head"); got != want {
					t.Fatalf("after %d punishments: a %d-byte ledger, want %d", punishments, got, want)
				}
				rest, err := ParseLedger(append(b, "tail"...)[len("head"):], fresh)
				if err != nil || string(rest) != "tail" {
					t.Fatalf("after %d punishments: ParseLedger = %q, %v; want the tail back", punishments, rest, err)
				}
				for i := 0; s != nil && i < n; i++ {
					if fresh.Standing(i) != s.Standing(i) || fresh.Excluded(i) != s.Excluded(i) {
						t.Fatalf("after %d punishments, agent %d: standing %v excluded %v, want %v %v", punishments, i,
							fresh.Standing(i), fresh.Excluded(i), s.Standing(i), s.Excluded(i))
					}
				}
			}
		})
	}
}

// TestLedgerRefusesMismatch parses ledgers into schemes they were not
// written for, and truncated ledgers: each is ErrLedger, never a panic.
func TestLedgerRefusesMismatch(t *testing.T) {
	d := NewDisconnect(3, 0)
	_ = d.Punish(2, 0, 1)
	b, _ := AppendLedger(nil, d)
	for name, tc := range map[string]struct {
		b []byte
		s Scheme
	}{
		"other scheme":   {b, NewDeposit(3, 0, 0)},
		"other size":     {b, NewDisconnect(4, 0)},
		"no scheme":      {b, nil},
		"none as scheme": {[]byte{0, 0, 0}, NewDisconnect(3, 0)},
		"empty":          {nil, NewDisconnect(3, 0)},
	} {
		if _, err := ParseLedger(tc.b, tc.s); !errors.Is(err, ErrLedger) {
			t.Errorf("%s: err = %v, want ErrLedger", name, err)
		}
	}
	for i := 1; i < len(b); i++ {
		if _, err := ParseLedger(b[:i], NewDisconnect(3, 0)); !errors.Is(err, ErrLedger) {
			t.Errorf("prefix of %d bytes: err = %v, want ErrLedger", i, err)
		}
	}
}
