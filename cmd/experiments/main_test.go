package main

import "testing"

// TestQuickRun runs every experiment at -quick: every table prints and
// every claim it reproduces holds.
func TestQuickRun(t *testing.T) {
	if got := run("", true); got != 0 {
		t.Fatalf("run -quick exited %d, want 0", got)
	}
}

// TestBrokenClaimExitsOne breaks Lemma 2 — a reconvergence budget of zero
// plays times out every corrupted session — and the run must fail.
func TestBrokenClaimExitsOne(t *testing.T) {
	defer func(budget int) { reconvergeBudget = budget }(reconvergeBudget)
	reconvergeBudget = 0
	for _, id := range []string{"E-L2", "E-L3"} {
		if got := run(id, true); got != 1 {
			t.Errorf("%s with no reconvergence budget exited %d, want 1", id, got)
		}
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	if got := run("E-NONE", true); got != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", got)
	}
}
