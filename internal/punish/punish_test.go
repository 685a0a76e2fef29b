package punish

import (
	"errors"
	"testing"
)

func TestDisconnectFirstStrike(t *testing.T) {
	d := NewDisconnect(3, 0) // default budget 1
	if d.Excluded(1) {
		t.Fatal("fresh agent excluded")
	}
	if err := d.Punish(1, 5, 1.0); err != nil {
		t.Fatal(err)
	}
	if !d.Excluded(1) {
		t.Fatal("full-severity strike did not disconnect")
	}
	if d.Excluded(0) || d.Excluded(2) {
		t.Fatal("collateral exclusion")
	}
	if got := d.Standing(1); got != 0 {
		t.Fatalf("standing after exclusion = %v", got)
	}
}

func TestDisconnectPartialSeverityAccumulates(t *testing.T) {
	d := NewDisconnect(2, 1)
	if err := d.Punish(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if d.Excluded(0) || d.Standing(0) != 0.5 {
		t.Fatalf("half-severity strike: excluded %v, standing %v; want false, 0.5", d.Excluded(0), d.Standing(0))
	}
	if err := d.Punish(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if !d.Excluded(0) || d.Standing(0) != 0 {
		t.Fatalf("accumulated severity 1.0: excluded %v, standing %v; want true, 0", d.Excluded(0), d.Standing(0))
	}
	if d.Standing(1) != 1 {
		t.Fatalf("collateral strike: standing %v", d.Standing(1))
	}
}

func TestDisconnectUnknownAgent(t *testing.T) {
	d := NewDisconnect(2, 1)
	if err := d.Punish(9, 0, 1); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
	if d.Excluded(-1) {
		t.Fatal("out of range agent excluded")
	}
}

func TestReputationDecayAndThreshold(t *testing.T) {
	r := NewReputation(2, 0.5, 0.2, 0.01)
	if r.Excluded(0) {
		t.Fatal("fresh agent excluded")
	}
	// Repeated full-severity offences: 1 → 0.5 → 0.25 → 0.125 < 0.2.
	for i := 0; i < 2; i++ {
		if err := r.Punish(0, i, 1); err != nil {
			t.Fatal(err)
		}
		if r.Excluded(0) {
			t.Fatalf("excluded after only %d offences", i+1)
		}
	}
	if err := r.Punish(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !r.Excluded(0) {
		t.Fatalf("score %v should be below threshold", r.Standing(0))
	}
}

func TestReputationRegeneration(t *testing.T) {
	r := NewReputation(1, 0.5, 0.2, 0.1)
	if err := r.Punish(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	before := r.Standing(0)
	r.Credit(0)
	if r.Standing(0) <= before {
		t.Fatal("credit did not regenerate reputation")
	}
	// Regeneration caps at 1.
	for i := 0; i < 100; i++ {
		r.Credit(0)
	}
	if got := r.Standing(0); got > 1 {
		t.Fatalf("reputation exceeded 1: %v", got)
	}
}

func TestReputationNoRegenerationWhenExcluded(t *testing.T) {
	r := NewReputation(1, 0.5, 0.2, 0.1)
	for i := 0; i < 5; i++ {
		if err := r.Punish(0, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Excluded(0) {
		t.Fatal("not excluded after 5 strikes")
	}
	s := r.Standing(0)
	r.Credit(0)
	if r.Standing(0) != s {
		t.Fatal("excluded agent regenerated")
	}
}

func TestReputationDefaults(t *testing.T) {
	r := NewReputation(1, -1, 2, -5) // all invalid → defaults
	if err := r.Punish(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.Standing(0); got != 0.5 {
		t.Fatalf("default decay: standing = %v, want 0.5", got)
	}
}

func TestDepositFinesAndExclusion(t *testing.T) {
	d := NewDeposit(2, 2, 1)
	if err := d.Punish(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d.Excluded(0) {
		t.Fatalf("balance %v should still be positive", d.Standing(0))
	}
	if err := d.Punish(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !d.Excluded(0) {
		t.Fatal("empty escrow should exclude")
	}
	if got := d.Standing(0); got != 0 {
		t.Fatalf("standing clamped at 0, got %v", got)
	}
}

func TestDepositPartialSeverity(t *testing.T) {
	d := NewDeposit(1, 1, 1)
	if err := d.Punish(0, 0, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := d.Standing(0); got != 0.75 {
		t.Fatalf("balance = %v, want 0.75", got)
	}
}

func TestDepositDefaults(t *testing.T) {
	d := NewDeposit(1, 0, 0)
	if got := d.Standing(0); got != 3 {
		t.Fatalf("default escrow = %v, want 3", got)
	}
}

func TestSchemeNames(t *testing.T) {
	schemes := []Scheme{NewDisconnect(1, 1), NewReputation(1, 0.5, 0.2, 0), NewDeposit(1, 1, 1)}
	seen := map[string]bool{}
	for _, s := range schemes {
		name := s.Name()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate scheme name %q", name)
		}
		seen[name] = true
	}
}
