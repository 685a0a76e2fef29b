package punish

import (
	"errors"
	"reflect"
	"testing"
)

// TestLedgerRoundTrip punishes each scheme, appends its ledger and parses
// it into a fresh replica: the replica must hold the same standing,
// exclusions and history, and the bytes after the ledger must come back.
func TestLedgerRoundTrip(t *testing.T) {
	for _, s := range []Scheme{NewDisconnect(4, 2), NewReputation(4, 0.5, 0.3, 0.01), NewDeposit(4, 3, 1), nil} {
		name := "none"
		if s != nil {
			name = s.Name()
			for round, agent := range []int{1, 3, 1, 2, 1} {
				if err := s.Punish(agent, round, 0.5+0.25*float64(round%3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Run(name, func(t *testing.T) {
			b, ok := AppendLedger([]byte("head"), s)
			if !ok {
				t.Fatal("AppendLedger refused a built-in scheme")
			}
			b = append(b, "tail"...)
			var fresh Scheme
			if s != nil {
				fresh = s.Fresh()
			}
			rest, err := ParseLedger(b[len("head"):], fresh)
			if err != nil || string(rest) != "tail" {
				t.Fatalf("ParseLedger = %q, %v; want the tail back", rest, err)
			}
			if s == nil {
				return
			}
			for i := 0; i < 4; i++ {
				if fresh.Standing(i) != s.Standing(i) || fresh.Excluded(i) != s.Excluded(i) {
					t.Fatalf("agent %d: standing %v excluded %v, want %v %v", i,
						fresh.Standing(i), fresh.Excluded(i), s.Standing(i), s.Excluded(i))
				}
			}
			if !reflect.DeepEqual(fresh.History(), s.History()) {
				t.Fatalf("history %v, want %v", fresh.History(), s.History())
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
