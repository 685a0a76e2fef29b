package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gameauthority/internal/invariant"
)

func TestLoadMixCoversAllDriversAndFamilies(t *testing.T) {
	drivers := map[string]bool{}
	families := 0
	for _, sc := range invariant.Mix() {
		drivers[sc.Driver] = true
		if sc.Driver == "pure" {
			families++
		}
		if sc.Weight <= 0 {
			t.Fatalf("%s: non-positive default weight", sc.Name)
		}
	}
	for _, d := range []string{"pure", "mixed", "rra", "distributed"} {
		if !drivers[d] {
			t.Fatalf("default mix misses driver %q", d)
		}
	}
	if families < 5 {
		t.Fatalf("default mix has %d catalog families, want ≥ 5", families)
	}
}

func TestApplyMix(t *testing.T) {
	mix, err := applyMix(invariant.Mix(), "congestion=9,rra=0")
	if err != nil {
		t.Fatal(err)
	}
	foundCongestion := false
	for _, sc := range mix {
		if sc.Name == "rra" {
			t.Fatal("weight 0 must drop the scenario")
		}
		if sc.Name == "congestion" {
			foundCongestion = true
			if sc.Weight != 9 {
				t.Fatalf("congestion weight = %d, want 9", sc.Weight)
			}
		}
	}
	if !foundCongestion {
		t.Fatal("congestion missing after override")
	}

	for _, bad := range []string{"nope=1", "congestion", "congestion=-1", "congestion=x"} {
		if _, err := applyMix(invariant.Mix(), bad); err == nil {
			t.Fatalf("applyMix(%q) should fail", bad)
		}
	}
	// Zeroing one scenario is fine; zeroing every scenario is an error.
	var allZero []string
	for _, sc := range invariant.Mix() {
		allZero = append(allZero, sc.Name+"=0")
	}
	if _, err := applyMix(invariant.Mix(), strings.Join(allZero, ",")); err == nil {
		t.Fatal("an all-zero mix should fail")
	}
}

// TestSessionCountsExactAndPositive: -sessions is apportioned over the
// mix exactly, and every scenario left in the mix gets a session.
func TestSessionCountsExactAndPositive(t *testing.T) {
	mix := invariant.Mix()
	// Skewed weights force the claw-back path.
	skew := []invariant.Scenario{{Name: "a", Weight: 100}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1}}
	for _, tc := range []struct {
		mix      []invariant.Scenario
		sessions int
	}{{mix, len(mix)}, {mix, 50}, {mix, 1000}, {mix, 1001}, {skew, 3}} {
		slots, err := invariant.Fleet(tc.mix, tc.sessions, 1, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != tc.sessions {
			t.Fatalf("sessions=%d: the fleet has %d", tc.sessions, len(slots))
		}
		per := make([]int, len(tc.mix))
		for _, s := range slots {
			per[s.Scenario]++
		}
		for i, c := range per {
			if c < 1 {
				t.Fatalf("sessions=%d: scenario %s got %d sessions", tc.sessions, tc.mix[i].Name, c)
			}
		}
	}
}

// The three mini runs drive run() itself at CI size, one per transport:
// the flag-to-transport wiring, the loopback server and the summary are
// loadgen's own; what a run must get right is the acceptance table's job
// (TestAcceptance in the root package).
func runMini(t *testing.T, cfg config) {
	t.Helper()
	var out bytes.Buffer
	cfg.out = &out
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, sc := range invariant.Mix() {
		if !strings.Contains(got, "\n"+sc.Name+" ") {
			t.Fatalf("scenario %s missing from the summary:\n%s", sc.Name, got)
		}
	}
	if !strings.Contains(got, "\ntotal ") {
		t.Fatalf("no total row in the summary:\n%s", got)
	}
}

func TestRunInProcessMini(t *testing.T) {
	runMini(t, config{sessions: 16, plays: 2, seed: 11, deviants: 0.25})
}

func TestRunSelfserveMini(t *testing.T) {
	runMini(t, config{sessions: 16, plays: 1, seed: 3, selfserve: true})
}

func TestRunWSMini(t *testing.T) {
	runMini(t, config{sessions: 16, plays: 4, batch: 2, seed: 5, selfserve: true, transport: "ws", conns: 2})
}

func TestRunRejectsBadConfigs(t *testing.T) {
	for _, cfg := range []config{
		{sessions: 0, plays: 1},
		{sessions: 1, plays: 0},
		{sessions: 4, plays: 1}, // below the mix size
		{sessions: 100, plays: 1, httpBase: "http://x", selfserve: true}, // exclusive transports
		{sessions: 100, plays: 1, mix: "nope=1"},
		{sessions: 100, plays: 1, batch: -1},
		{sessions: 100, plays: 1, deviants: 1.5},
		{sessions: 100, plays: 1, transport: "carrier-pigeon"},
		{sessions: 100, plays: 1, transport: "ws"}, // no server named
		{sessions: 100, plays: 1, transport: "ws", selfserve: true, conns: 0},
	} {
		cfg.out = io.Discard
		if err := run(cfg); err == nil {
			t.Fatalf("run(%+v) should fail", cfg)
		}
	}
}
