package gameauthority_test

import (
	"context"
	"errors"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/sim"
)

func uniform2(int, ga.Profile) ga.MixedProfile {
	return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
}

func manipulator() *ga.MixedAgent {
	return &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
}

// TestNewOptionValidation exercises the error paths of the options API.
func TestNewOptionValidation(t *testing.T) {
	mp := ga.MatchingPennies()
	cases := []struct {
		name string
		g    ga.Game
		opts []ga.Option
	}{
		{"nil game", nil, nil},
		{"nil elected game for mixed", nil, []ga.Option{ga.WithStrategies(uniform2)}},
		{"unknown audit mode", mp, []ga.Option{
			ga.WithStrategies(uniform2), ga.WithAudit(ga.AuditMode(99))}},
		{"audit without punishment", mp, []ga.Option{
			ga.WithStrategies(uniform2), ga.WithAudit(ga.AuditPerRound)}},
		{"batched audit without epoch", mp, []ga.Option{
			ga.WithStrategies(uniform2),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
			ga.WithAudit(ga.AuditBatched)}},
		{"mixed agents without strategies", mp, []ga.Option{
			ga.WithMixedAgents(nil, manipulator())}},
		{"pure agents on a mixed session", mp, []ga.Option{
			ga.WithStrategies(uniform2), ga.WithAgents(nil, nil)}},
		{"audit mode on a distributed session", mp, []ga.Option{
			ga.WithDistributed(2, 0, nil), ga.WithAudit(ga.AuditPerRound)}},
		{"distributed n <= 3f", mp, []ga.Option{ga.WithDistributed(4, 2, nil)}},
		{"distributed n = 3f boundary", mp, []ga.Option{ga.WithDistributed(3, 1, nil)}},
		{"game alongside RRA", mp, []ga.Option{ga.WithRRA(4, 2)}},
		{"RRA with zero resources", nil, []ga.Option{ga.WithRRA(4, 0)}},
		{"game alongside election", mp, []ga.Option{
			ga.WithElection([]ga.Candidate{{Game: mp}}, []ga.Voter{{Prefs: []int{0}}})}},
		{"agent count mismatch", mp, []ga.Option{ga.WithAgents(nil, nil, nil)}},
		{"actual game on a pure session", mp, []ga.Option{
			ga.WithActual(ga.MatchingPenniesManipulated())}},
		{"pulse budget on a pure session", mp, []ga.Option{ga.WithPulseBudget(100)}},
		{"actual game on an RRA session", nil, []ga.Option{
			ga.WithRRA(4, 2), ga.WithActual(mp)}},
		{"pure agents on an RRA session", nil, []ga.Option{
			ga.WithRRA(4, 2), ga.WithAgents(nil, nil, nil, nil)}},
		{"RRA byzantine on a distributed session", mp, []ga.Option{
			ga.WithDistributed(2, 0, nil),
			ga.WithRRAByzantine(0, ga.FixedChooser(0))}},
		{"RRA alongside distributed", mp, []ga.Option{
			ga.WithDistributed(2, 0, nil), ga.WithRRA(4, 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := ga.New(tc.g, tc.opts...); err == nil {
				t.Fatalf("New accepted invalid config, built %T", s)
			}
		})
	}
}

// TestDistributedFoulStats checks that distributed convictions reach both
// the per-play results and the aggregate stats.
func TestDistributedFoulStats(t *testing.T) {
	const n, f = 4, 1
	g, err := ga.PublicGoods(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	behaviors := make([]*ga.Agent, n)
	behaviors[2] = &ga.Agent{Choose: func(int, ga.Profile) int { return 99 }}
	byz := map[int]ga.Adversary{2: sim.PassthroughAdversary()}
	s, err := ga.New(g,
		ga.WithDistributed(n, f, byz),
		ga.WithAgents(behaviors...),
		ga.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	res := s.Results()
	if len(res[0].Convicted) == 0 {
		t.Fatalf("cheater not convicted on play 0: %+v", res[0])
	}
	if got := s.Stats().Fouls; got == 0 {
		t.Fatal("Stats().Fouls is zero despite convictions in Results()")
	}
}

// TestObserverStream checks the event stream end to end: sticky election
// events, plays, verdicts, and convictions.
func TestObserverStream(t *testing.T) {
	const rounds = 8
	stubborn := &ga.Agent{Choose: func(int, ga.Profile) int { return 0 }}
	s, err := ga.New(nil,
		ga.WithElection(
			[]ga.Candidate{
				{Game: ga.PrisonersDilemma(), Description: "pd"},
				{Game: ga.CoordinationGame(), Description: "coord"},
			},
			[]ga.Voter{{Prefs: []int{0, 1}}, {Prefs: []int{0, 1}}, {Prefs: []int{1, 0}}},
		),
		ga.WithAgents(nil, stubborn),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 2)),
		ga.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	counts := make(map[ga.EventKind]int)
	// Subscribing after New must still deliver the sticky election event.
	unsubscribe := s.Subscribe(ga.ObserverFunc(func(e ga.Event) { counts[e.Kind]++ }))
	if counts[ga.EventElection] != 1 {
		t.Fatalf("election events on subscribe = %d, want 1", counts[ga.EventElection])
	}
	if _, err := s.Run(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	unsubscribe()
	if counts[ga.EventPlay] != rounds {
		t.Fatalf("play events = %d, want %d", counts[ga.EventPlay], rounds)
	}
	if counts[ga.EventVerdict] == 0 {
		t.Fatal("no verdict events for a stubborn cheater")
	}
	if counts[ga.EventConviction] == 0 {
		t.Fatal("no conviction events for a repeat offender")
	}

	// After unsubscribe no further events arrive.
	before := counts[ga.EventPlay]
	if _, err := s.Play(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counts[ga.EventPlay] != before {
		t.Fatal("events delivered after unsubscribe")
	}
}

// TestEventsChannel checks the buffered-channel adapter.
func TestEventsChannel(t *testing.T) {
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := ga.Events(s, 64)
	if _, err := s.Run(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	cancel()
	cancel() // idempotent
	plays := 0
	for e := range events {
		if e.Kind == ga.EventPlay {
			plays++
		}
	}
	if plays != 5 {
		t.Fatalf("channel delivered %d play events, want 5", plays)
	}
}

// TestPlayContextCancellation checks ctx plumbing on every driver.
func TestPlayContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pure, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pure.Play(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pure Play with cancelled ctx: %v", err)
	}

	dist, err := ga.New(ga.PrisonersDilemma(), ga.WithDistributed(2, 0, nil), ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Play(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("distributed Play with cancelled ctx: %v", err)
	}
}

// TestDistributedPulseBudget checks ErrPulseBudget is reported and
// recoverable.
func TestDistributedPulseBudget(t *testing.T) {
	s, err := ga.New(ga.PrisonersDilemma(),
		ga.WithDistributed(2, 0, nil),
		ga.WithPulseBudget(2), // far below one protocol period
		ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Play(ctx); !errors.Is(err, ga.ErrPulseBudget) {
		t.Fatalf("expected ErrPulseBudget, got %v", err)
	}
	// Repeated plays keep stepping and eventually complete the play.
	for i := 0; i < 50; i++ {
		if _, err := s.Play(ctx); err == nil {
			return
		} else if !errors.Is(err, ga.ErrPulseBudget) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	t.Fatal("play never completed despite repeated budget-limited attempts")
}
