package gameauthority_test

import (
	"context"
	"math"
	"testing"

	ga "gameauthority"
)

// mixedDriver, rraDriver and distDriver build a session with New and hand
// back the engine behind it, for the tests and experiment benchmarks that
// read what only the engine exposes (per-agent payoffs, protocol counters,
// resource loads, replica consistency). The first two also return the
// session, which plays the rounds (see playRounds).
func mixedDriver(tb testing.TB, elected ga.Game, opts ...ga.Option) (ga.Session, *ga.MixedSession) {
	tb.Helper()
	s, err := ga.New(elected, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return s, ga.AsMixed(s)
}

func rraDriver(tb testing.TB, n, b int, seed uint64) (ga.Session, *ga.SupervisedRRA) {
	tb.Helper()
	s, err := ga.New(nil, ga.WithRRA(n, b),
		ga.WithPunishment(ga.NewDisconnectScheme(n, 0)), ga.WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return s, ga.AsRRA(s)
}

// playRounds plays rounds on s and fails the test on error.
func playRounds(tb testing.TB, s ga.Session, rounds int) {
	tb.Helper()
	if _, err := s.Run(context.Background(), rounds); err != nil {
		tb.Fatal(err)
	}
}

func distDriver(tb testing.TB, g ga.Game, n, f int, seed uint64) *ga.DistributedSession {
	tb.Helper()
	s, err := ga.New(g, ga.WithDistributed(n, f, nil), ga.WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return ga.AsDistributed(s)
}

// fig1Options is the paper's Fig. 1 scenario: matching pennies elected,
// agent B secretly holding the Manipulate strategy and always playing it.
func fig1Options(seed uint64, more ...ga.Option) []ga.Option {
	return append([]ga.Option{
		ga.WithActual(ga.MatchingPenniesManipulated()),
		ga.WithStrategies(uniform2),
		ga.WithMixedAgents(nil, manipulator()),
		ga.WithSeed(seed),
	}, more...)
}

// TestEndToEndFig1 exercises the full public API on the paper's headline
// scenario: the Fig. 1 hidden manipulation, unsupervised vs supervised.
func TestEndToEndFig1(t *testing.T) {
	const rounds = 5000
	unsupSess, unsup := mixedDriver(t, ga.MatchingPennies(), fig1Options(1, ga.WithAudit(ga.AuditOff))...)
	playRounds(t, unsupSess, rounds)

	supSess, sup := mixedDriver(t, ga.MatchingPennies(), fig1Options(2,
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), ga.WithAudit(ga.AuditPerRound))...)
	playRounds(t, supSess, rounds)

	gainUnsup := unsup.CumulativePayoff(1) / rounds
	gainSup := sup.CumulativePayoff(1) / rounds
	if gainUnsup < 3.5 {
		t.Fatalf("unsupervised manipulation gain = %v, want ≈ 4", gainUnsup)
	}
	if math.Abs(gainSup) > 0.1 {
		t.Fatalf("supervised manipulation gain = %v, want ≈ 0", gainSup)
	}
	if !sup.Excluded(1) {
		t.Fatal("supervised session did not exclude the manipulator")
	}
}

// TestEndToEndDistributed runs the full distributed middleware through the
// facade: an agent playing outside Π is convicted by every honest replica.
func TestEndToEndDistributed(t *testing.T) {
	// Two-player game on a 4-processor network is not supported (one
	// player per processor), so use the 2-processor degenerate bound:
	// f must be 0 (n > 3f).
	s := distDriver(t, ga.PrisonersDilemma(), 2, 0, 11)
	s.RunPlays(4)
	if err := s.ConsistentResults(3); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
	if len(res) < 3 {
		t.Fatalf("plays completed = %d", len(res))
	}
	// Best-response dynamics land on defect/defect.
	last := res[len(res)-1]
	if !last.Outcome.Equal(ga.Profile{1, 1}) {
		t.Fatalf("distributed PD outcome = %v, want [1 1]", last.Outcome)
	}
}

// TestEndToEndRRATheorem5 sweeps R(k) through the facade and checks the
// Theorem 5 bound.
func TestEndToEndRRATheorem5(t *testing.T) {
	const (
		n, b = 8, 4
		k    = 2000
	)
	sess, h := rraDriver(t, n, b, 3)
	playRounds(t, sess, k)
	r, err := ga.MultiRoundAnarchyCost(float64(h.RRA().MaxLoad()), ga.OptMaxLoad(n, b, k))
	if err != nil {
		t.Fatal(err)
	}
	if r > ga.Theorem5Bound(b, k)+0.05 {
		t.Fatalf("R(k)=%v above bound %v", r, ga.Theorem5Bound(b, k))
	}
	if r < 1-1e-9 {
		t.Fatalf("R(k)=%v below 1", r)
	}
}

// TestEndToEndElection verifies the legislative service through the facade.
func TestEndToEndElection(t *testing.T) {
	candidates := []ga.Candidate{
		{Game: ga.MatchingPennies(), Description: "pennies"},
		{Game: ga.PrisonersDilemma(), Description: "pd"},
	}
	voters := []ga.Voter{
		{Prefs: []int{0, 1}}, {Prefs: []int{0, 1}}, {Prefs: []int{1, 0}},
	}
	out, err := ga.RobustElection(candidates, voters, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != 0 {
		t.Fatalf("winner = %d, want 0", out.Winner)
	}
}

// TestEndToEndMetrics sanity-checks the metric helpers via the facade.
func TestEndToEndMetrics(t *testing.T) {
	poa, err := ga.PriceOfAnarchy(ga.PrisonersDilemma(), 0)
	if err != nil || math.Abs(poa-2) > 1e-9 {
		t.Fatalf("PoA = %v, %v", poa, err)
	}
	pom, err := ga.PriceOfMalice(3, 2)
	if err != nil || math.Abs(pom-1.5) > 1e-9 {
		t.Fatalf("PoM = %v, %v", pom, err)
	}
	eqs := ga.MixedNashEquilibria2P(ga.MatchingPennies(), 0)
	if len(eqs) != 1 || math.Abs(eqs[0][0][0]-0.5) > 1e-6 {
		t.Fatalf("matching pennies equilibrium = %v", eqs)
	}
}
