package deviate

import (
	"context"
	"strings"
	"testing"

	"gameauthority/internal/core"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
)

func TestRegistryAndByName(t *testing.T) {
	reg := Registry()
	if len(reg) != 5 {
		t.Fatalf("registry has %d strategies, want 5", len(reg))
	}
	seen := map[string]bool{}
	for _, d := range reg {
		if d.Name() == "" {
			t.Fatalf("strategy with empty name")
		}
		if seen[d.Name()] {
			t.Fatalf("duplicate strategy name %q", d.Name())
		}
		seen[d.Name()] = true
		got, ok := ByName(d.Name())
		if !ok || got.Name() != d.Name() {
			t.Fatalf("ByName(%q) = %v, %v", d.Name(), got, ok)
		}
	}
	if _, ok := ByName("no-such-strategy"); ok {
		t.Fatalf("ByName resolved an unknown name")
	}
	if names := Names(); len(names) != len(reg) || names[0] != reg[0].Name() {
		t.Fatalf("Names() = %v", names)
	}
}

// coordGame is a 3-player consensus game where honest play settles on
// action 0, so strategies that camp other actions foul visibly.
func coordGame(t *testing.T) game.Game {
	t.Helper()
	g, err := game.CoordinationN(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPureDriverDetection attaches every strategy to a pure session and
// checks the judicial service charges the deviant (round 0 is duty-free,
// so fouls can only start at round 1). Strategies whose deviation shows
// only when their selfish pick differs from the equilibrium action run on
// matching pennies (where best responses cycle); the always-deviating
// ones run on the consensus game.
func TestPureDriverDetection(t *testing.T) {
	ctx := context.Background()
	for _, d := range Registry() {
		t.Run(d.Name(), func(t *testing.T) {
			g := game.Game(coordGame(t))
			deviant := 1
			if d.Name() == "best-response-liar" || d.Name() == "distribution-skewer" {
				// In the consensus game the liar's lookahead and the
				// skewer's myopic favourite both coincide with honest
				// play — matching pennies keeps them observable.
				g = game.MatchingPennies()
			}
			n := g.NumPlayers()
			const budget = 0.5
			scheme := punish.NewDisconnect(n, budget)
			s, err := core.NewSession(core.SessionConfig{
				Game:     g,
				Seed:     7,
				Scheme:   scheme,
				Deviants: map[int]core.Deviant{deviant: d},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 10); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Fouls == 0 {
				t.Fatalf("%s: no fouls detected in 10 plays", d.Name())
			}
			foulsOnDeviant := 0
			var severityOnDeviant float64
			for _, res := range s.Results() {
				foulsOnDeviant += len(res.Verdict.FoulsFor(deviant))
				severityOnDeviant += res.Verdict.TotalSeverity(deviant)
				for p := 0; p < n; p++ {
					if p != deviant && len(res.Verdict.FoulsFor(p)) > 0 {
						t.Fatalf("%s: honest player %d charged: %+v", d.Name(), p, res.Verdict)
					}
				}
			}
			if foulsOnDeviant == 0 {
				t.Fatalf("%s: fouls never charged to the deviant", d.Name())
			}
			// The executive's ledger must agree with the judicial
			// verdicts: nothing landed on an honest player, whose standing
			// is the whole budget, and the deviant's standing is what the
			// severity charged to it leaves of the budget.
			for p := 0; p < n; p++ {
				want := budget
				if p == deviant {
					want = max(0, budget-severityOnDeviant)
				}
				if got := scheme.Standing(p); got != want {
					t.Fatalf("%s: player %d stands at %.2f, want %.2f (judicial severity on the deviant %.2f)",
						d.Name(), p, got, want, severityOnDeviant)
				}
			}
			if !st.Excluded[deviant] {
				t.Fatalf("%s: deviant not excluded after 10 plays", d.Name())
			}
			if st.Convictions == 0 {
				t.Fatalf("%s: no conviction events counted", d.Name())
			}
		})
	}
}

// TestMixedDriverDetection: every strategy is caught by the per-round
// seed audit on the mixed driver.
func TestMixedDriverDetection(t *testing.T) {
	ctx := context.Background()
	g := game.MatchingPennies()
	strategies := func(int, game.Profile) game.MixedProfile {
		return game.MixedProfile{game.Uniform(2), game.Uniform(2)}
	}
	for _, d := range Registry() {
		t.Run(d.Name(), func(t *testing.T) {
			s, err := core.NewSession(core.SessionConfig{
				Game:       g,
				Seed:       11,
				Strategies: strategies,
				Mode:       core.AuditPerRound,
				Scheme:     punish.NewDisconnect(2, 0),
				Deviants:   map[int]core.Deviant{0: d},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 12); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Fouls == 0 || !st.Excluded[0] {
				t.Fatalf("%s: fouls=%d excluded=%v, want detection and exclusion",
					d.Name(), st.Fouls, st.Excluded)
			}
		})
	}
}

// TestRRADriverDetection: off-stream resource choices are caught by the
// RRA seed audit for the strategies that deviate every round; the skewer
// is caught within a few rounds.
func TestRRADriverDetection(t *testing.T) {
	ctx := context.Background()
	for _, d := range Registry() {
		t.Run(d.Name(), func(t *testing.T) {
			s, err := core.NewSession(core.SessionConfig{
				Seed:         13,
				RRAAgents:    6,
				RRAResources: 3,
				Scheme:       punish.NewDisconnect(6, 0),
				Deviants:     map[int]core.Deviant{2: d},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 16); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Fouls == 0 || !st.Excluded[2] {
				t.Fatalf("%s: fouls=%d excluded=%v, want detection and exclusion",
					d.Name(), st.Fouls, st.Excluded)
			}
			if st.CumulativeCost == nil {
				t.Fatalf("RRA driver reports no cumulative costs")
			}
		})
	}
}

// TestDistributedDriverDetection runs one always-on strategy through the
// full Byzantine-network driver and checks the agreed verdicts convict it.
func TestDistributedDriverDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed driver is slow in -short")
	}
	ctx := context.Background()
	for _, name := range []string{"commitment-cheat", "freerider"} {
		d, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			s, err := core.NewSession(core.SessionConfig{
				Game:       coordGame(t),
				Seed:       17,
				DistProcs:  3,
				DistFaults: 0,
				Scheme:     punish.NewDisconnect(3, 0),
				Deviants:   map[int]core.Deviant{1: d},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 4); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Fouls == 0 || !st.Excluded[1] {
				t.Fatalf("%s: fouls=%d excluded=%v, want conviction over the network",
					name, st.Fouls, st.Excluded)
			}
			if st.CumulativeCost == nil {
				t.Fatalf("distributed driver reports no cumulative costs")
			}
		})
	}
}

// TestDeviantConfigValidation covers the wiring error paths.
func TestDeviantConfigValidation(t *testing.T) {
	g := coordGame(t)
	cases := []core.SessionConfig{
		{Game: g, Deviants: map[int]core.Deviant{5: AlwaysDefect()}},  // out of range
		{Game: g, Deviants: map[int]core.Deviant{-1: AlwaysDefect()}}, // negative
		{Game: g, Deviants: map[int]core.Deviant{0: nil}},             // nil strategy
		{Game: g, Agents: []*core.Agent{core.HonestPure(g, 0), nil, nil}, // agent+deviant conflict
			Deviants: map[int]core.Deviant{0: AlwaysDefect()}},
		{RRAAgents: 4, RRAResources: 2, Scheme: punish.NewDisconnect(4, 0), // rra byz+deviant conflict
			RRAByz:   map[int]func(int, []int64) int{1: game.HogChooser()},
			Deviants: map[int]core.Deviant{1: AlwaysDefect()}},
	}
	for i, cfg := range cases {
		if _, err := core.NewSession(cfg); err == nil {
			t.Fatalf("case %d: invalid deviant config accepted", i)
		}
	}
}

// TestPreferredAction pins the myopic favourite on a game where it is
// obvious, and exercises the sampling fallback on a large profile space.
func TestPreferredAction(t *testing.T) {
	// In the prisoner's dilemma (cost form) defection minimizes own cost
	// against a uniform opponent.
	pd, err := game.PrisonersDilemmaParams(0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a := preferredAction(pd, 0, 1); a != 1 {
		t.Fatalf("preferredAction(pd) = %d, want 1 (defect)", a)
	}
	// 16-player minority game: opponent space 2^15 exceeds the exact
	// enumeration bound, forcing the sampled estimate.
	mg, err := game.MinorityGame(17)
	if err != nil {
		t.Fatal(err)
	}
	if a := preferredAction(mg, 0, 1); a != 0 && a != 1 {
		t.Fatalf("preferredAction(minority) = %d out of range", a)
	}
}

// TestNetworkAdversaryNeedsDistributed pins the config error a stray
// adversary (no distributed session) produces: it must name the real
// mistake, not the n > 3f arithmetic.
func TestNetworkAdversaryNeedsDistributed(t *testing.T) {
	_, err := core.NewSession(core.SessionConfig{
		Game:    game.MatchingPennies(),
		DistByz: map[int]sim.Adversary{0: sim.SilentAdversary()},
	})
	if err == nil || !strings.Contains(err.Error(), "WithDistributed") {
		t.Fatalf("err = %v, want a WithDistributed-naming config error", err)
	}
}
