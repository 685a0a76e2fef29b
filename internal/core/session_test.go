package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// TestKindOptionsRejected sets each kind-specific option on a session of
// every other kind and expects ErrConfig. An option that itself selects a
// kind that takes it (strategies make a pure configuration mixed) is a
// different session, not a rejection, and is skipped.
func TestKindOptionsRejected(t *testing.T) {
	pd := game.PrisonersDilemma()
	uniform := func(int, game.Profile) game.MixedProfile {
		return game.MixedProfile{game.Uniform(2), game.Uniform(2)}
	}
	bases := map[SessionKind]func() SessionConfig{
		KindPure: func() SessionConfig {
			return SessionConfig{Game: pd, Seed: 1, Scheme: punish.NewDisconnect(2, 0)}
		},
		KindMixed: func() SessionConfig {
			return SessionConfig{Game: game.MatchingPennies(), Seed: 1, Strategies: uniform, Scheme: punish.NewDisconnect(2, 0)}
		},
		KindRRA: func() SessionConfig {
			return SessionConfig{Seed: 1, RRAAgents: 4, RRAResources: 2, Scheme: punish.NewDisconnect(4, 0)}
		},
		KindDistributed: func() SessionConfig {
			return SessionConfig{Game: &nPlayerPD{n: 4}, Seed: 1, DistProcs: 4, DistFaults: 1}
		},
	}
	for kind, base := range bases {
		if _, err := NewSession(base()); err != nil {
			t.Fatalf("%s base: %v", kind, err)
		}
	}
	options := []struct {
		name   string
		accept []SessionKind
		set    func(*SessionConfig)
	}{
		{"game", []SessionKind{KindPure, KindMixed, KindDistributed}, func(c *SessionConfig) { c.Game = pd }},
		{"agents", []SessionKind{KindPure, KindDistributed}, func(c *SessionConfig) { c.Agents = make([]*Agent, 2) }},
		{"strategies", []SessionKind{KindMixed}, func(c *SessionConfig) { c.Strategies = uniform }},
		{"mixed-agents", []SessionKind{KindMixed}, func(c *SessionConfig) { c.MixedAgents = make([]*MixedAgent, 2) }},
		{"actual", []SessionKind{KindMixed}, func(c *SessionConfig) { c.Actual = game.MatchingPenniesManipulated() }},
		{"audit-mode", []SessionKind{KindMixed}, func(c *SessionConfig) { c.Mode = AuditPerRound }},
		{"rra-agents", []SessionKind{KindRRA}, func(c *SessionConfig) { c.RRAAgents = 4 }},
		{"rra-byzantine", []SessionKind{KindRRA}, func(c *SessionConfig) {
			c.RRAByz = map[int]func(int, []int64) int{0: func(int, []int64) int { return 0 }}
		}},
		{"pulse-budget", []SessionKind{KindDistributed}, func(c *SessionConfig) { c.DistPulseBudget = 100 }},
	}
	for _, opt := range options {
		for kind, base := range bases {
			if slices.Contains(opt.accept, kind) {
				continue
			}
			cfg := base()
			opt.set(&cfg)
			if slices.Contains(opt.accept, cfg.inferKind()) && cfg.inferKind() != kind {
				continue
			}
			if _, err := NewSession(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("%s on a %s session: err = %v, want ErrConfig", opt.name, kind, err)
			}
		}
	}
}

// TestStatsRoundsMatchEngine: the shell's round count, which numbers the
// plays it records, is each engine's own round counter.
func TestStatsRoundsMatchEngine(t *testing.T) {
	const rounds = 7
	uniform := func(int, game.Profile) game.MixedProfile {
		return game.MixedProfile{game.Uniform(2), game.Uniform(2)}
	}
	for _, tc := range []struct {
		cfg    SessionConfig
		engine func(Session) int
	}{
		{SessionConfig{Game: game.PrisonersDilemma(), Seed: 1},
			func(s Session) int { return EngineOf(s).(*PureSession).Round() }},
		{SessionConfig{Game: game.MatchingPennies(), Seed: 1, Strategies: uniform, Mode: AuditBatched, EpochLen: 3,
			Scheme: punish.NewDisconnect(2, 0)},
			func(s Session) int { return EngineOf(s).(*MixedSession).Round() }},
		{SessionConfig{Seed: 1, RRAAgents: 4, RRAResources: 2},
			func(s Session) int { return EngineOf(s).(*RRASupervised).RRA().Rounds() }},
		{SessionConfig{Game: &nPlayerPD{n: 4}, Seed: 1, DistProcs: 4, DistFaults: 1},
			func(s Session) int { return EngineOf(s).(*DistSession).seen }},
	} {
		s, err := NewSession(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		runRounds(t, s, rounds)
		if got, engine := s.Stats().Rounds, tc.engine(s); got != rounds || engine != rounds {
			t.Errorf("%s: Stats().Rounds = %d, engine counter %d, want %d", s.Stats().Kind, got, engine, rounds)
		}
	}
}

// newMixed builds cfg's mixed session through NewSession and returns it
// with its engine, for tests that play through the driver shell and then
// read what only the engine exposes.
func newMixed(t testing.TB, cfg MixedConfig) (Session, *MixedSession) {
	t.Helper()
	s, err := NewSession(SessionConfig{
		Game: cfg.Elected, Actual: cfg.Actual, Strategies: cfg.Strategies, MixedAgents: cfg.Agents,
		Scheme: cfg.Scheme, Mode: cfg.Mode, EpochLen: cfg.EpochLen, SampleProb: cfg.SampleProb,
		Window: cfg.Window, ChiThreshold: cfg.ChiThreshold, Seed: cfg.Seed, HistoryLimit: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, EngineOf(s).(*MixedSession)
}

// newPure builds a pure session through NewSession and returns it with
// its engine.
func newPure(t testing.TB, g game.Game, agents []*Agent, scheme punish.Scheme, seed uint64) (Session, *PureSession) {
	t.Helper()
	s, err := NewSession(SessionConfig{Game: g, Agents: agents, Scheme: scheme, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s, EngineOf(s).(*PureSession)
}

// newRRA builds an RRA session through NewSession (supervised exactly when
// scheme is set) and returns it with its engine.
func newRRA(t testing.TB, n, b int, seed uint64, scheme punish.Scheme) (Session, *RRASupervised) {
	t.Helper()
	s, err := NewSession(SessionConfig{RRAAgents: n, RRAResources: b, Seed: seed, Scheme: scheme, HistoryLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s, EngineOf(s).(*RRASupervised)
}

// runRounds plays rounds through the driver shell.
func runRounds(t testing.TB, s Session, rounds int) {
	t.Helper()
	if _, err := s.Run(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
}

// foulsByPlay plays rounds plays and returns the fouls each play's result
// carries, indexed by round.
func foulsByPlay(t testing.TB, s Session, rounds int) [][]audit.Foul {
	t.Helper()
	out := make([][]audit.Foul, 0, rounds)
	if _, err := s.PlayN(context.Background(), rounds, func(res RoundResult) error {
		out = append(out, clone(res.Verdict.Fouls))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
