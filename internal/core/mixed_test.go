package core

import (
	"errors"
	"math"
	"testing"

	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// fig1Config builds the E-F1 session: the elected game is plain matching
// pennies with uniform equilibrium strategies; the actual cost structure is
// the Fig. 1 manipulated game; agent B (1) plays Manipulate every round
// unless restricted.
func fig1Config(mode AuditMode, epochLen int, scheme punish.Scheme, seed uint64) MixedConfig {
	elected := game.MatchingPennies()
	actual := game.MatchingPenniesManipulated()
	manipulator := &MixedAgent{Override: func(round, honest int) int { return game.ManipulateAction }}
	return MixedConfig{
		Elected: elected,
		Actual:  actual,
		Strategies: func(int, game.Profile) game.MixedProfile {
			return game.MixedProfile{game.Uniform(2), game.Uniform(2)}
		},
		Agents:   []*MixedAgent{nil, manipulator},
		Scheme:   scheme,
		Mode:     mode,
		EpochLen: epochLen,
		Seed:     seed,
	}
}

func TestNewMixedSessionValidation(t *testing.T) {
	base := fig1Config(AuditPerRound, 0, punish.NewDisconnect(2, 0), 1)
	ok := base
	if _, err := NewMixedSession(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Elected = nil
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil elected: %v", err)
	}
	bad = base
	bad.Strategies = nil
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil strategies: %v", err)
	}
	bad = base
	bad.Agents = nil
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("agent arity: %v", err)
	}
	bad = base
	bad.Mode = AuditBatched
	bad.EpochLen = 0
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("batched without epoch: %v", err)
	}
	bad = base
	bad.Scheme = nil
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("audits without scheme: %v", err)
	}
	bad = base
	bad.Mode = AuditMode(0)
	if _, err := NewMixedSession(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero mode: %v", err)
	}
}

func TestFig1UnsupervisedManipulationGain(t *testing.T) {
	// §5.1: without the authority, B's expected payoff is +4 per play and
	// A's is −4 (A mixes uniformly; B always plays Manipulate).
	const rounds = 20000
	cfg := fig1Config(AuditOff, 0, nil, 42)
	sess, s := newMixed(t, cfg)
	runRounds(t, sess, rounds)
	perRoundB := s.CumulativePayoff(1) / rounds
	perRoundA := s.CumulativePayoff(0) / rounds
	if math.Abs(perRoundB-4) > 0.15 {
		t.Fatalf("B's manipulation payoff = %v per round, want ≈ +4", perRoundB)
	}
	if math.Abs(perRoundA+4) > 0.15 {
		t.Fatalf("A's payoff = %v per round, want ≈ −4", perRoundA)
	}
}

func TestFig1SupervisedManipulationNeutralized(t *testing.T) {
	// With the authority auditing per round, B's illegitimate action is
	// detected on play 0, B is excluded, and the executive samples the
	// honest strategy for it afterwards: long-run payoffs return to ≈ 0.
	const rounds = 20000
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditPerRound, 0, scheme, 43)
	sess, s := newMixed(t, cfg)
	fouls := foulsByPlay(t, sess, rounds)
	if !s.Excluded(1) {
		t.Fatal("manipulator not excluded")
	}
	if len(fouls[0]) == 0 || fouls[0][0].Agent != 1 {
		t.Fatalf("first play's fouls = %+v, want a foul by agent 1", fouls[0])
	}
	perRoundB := s.CumulativePayoff(1) / rounds
	perRoundA := s.CumulativePayoff(0) / rounds
	// One manipulated round among 20000: averages within noise of 0.
	if math.Abs(perRoundB) > 0.05 {
		t.Fatalf("B's supervised payoff = %v per round, want ≈ 0", perRoundB)
	}
	if math.Abs(perRoundA) > 0.05 {
		t.Fatalf("A's supervised payoff = %v per round, want ≈ 0", perRoundA)
	}
}

func TestMixedHonestSessionNoFouls(t *testing.T) {
	cfg := fig1Config(AuditPerRound, 0, punish.NewDisconnect(2, 0), 44)
	cfg.Agents = []*MixedAgent{nil, nil} // both honest
	cfg.Actual = nil                     // pure matching pennies
	sess, s := newMixed(t, cfg)
	for _, fouls := range foulsByPlay(t, sess, 200) {
		if len(fouls) != 0 {
			t.Fatalf("honest session produced fouls: %+v", fouls)
		}
	}
	// Expected payoffs ≈ 0 for both at equilibrium.
	for i := 0; i < 2; i++ {
		if got := s.CumulativePayoff(i) / 200; math.Abs(got) > 0.3 {
			t.Fatalf("agent %d equilibrium payoff = %v, want ≈ 0", i, got)
		}
	}
}

func TestMixedBatchedAuditDetectsAtEpochEnd(t *testing.T) {
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditBatched, 8, scheme, 45)
	sess, s := newMixed(t, cfg)
	// During the first epoch, no verdicts yet: damage accrues.
	runRounds(t, sess, 8)
	if s.Excluded(1) {
		t.Fatal("batched mode excluded mid-epoch")
	}
	// Next round triggers the epoch close and the audit.
	runRounds(t, sess, 1)
	if !s.Excluded(1) {
		t.Fatal("manipulator not excluded after epoch audit")
	}
}

func TestMixedCloseEpochFlushesTrailingRounds(t *testing.T) {
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditBatched, 16, scheme, 46)
	sess, s := newMixed(t, cfg)
	runRounds(t, sess, 5) // partial epoch
	if s.Excluded(1) {
		t.Fatal("excluded before epoch close")
	}
	if err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if !s.Excluded(1) {
		t.Fatal("trailing epoch not audited on CloseEpoch")
	}
}

func TestMixedWithholdAndTamperDetected(t *testing.T) {
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditPerRound, 0, scheme, 47)
	cfg.Agents = []*MixedAgent{
		{Withhold: func(round int) bool { return true }},
		nil,
	}
	s, err := NewMixedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlayRound(); err != nil {
		t.Fatal(err)
	}
	if !s.Excluded(0) {
		t.Fatal("withholding agent not excluded")
	}
}

func TestAuditModeCostAccounting(t *testing.T) {
	// E-AUD shape: batched auditing with epoch T spends ~1 agreement per
	// round plus 3 per epoch, vs 4 per round for per-round auditing.
	const rounds = 64
	run := func(mode AuditMode, epoch int) CostStats {
		cfg := fig1Config(mode, epoch, punish.NewDisconnect(2, 0), 48)
		cfg.Agents = []*MixedAgent{nil, nil}
		cfg.Actual = nil
		sess, s := newMixed(t, cfg)
		runRounds(t, sess, rounds)
		if err := s.CloseEpoch(); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	perRound := run(AuditPerRound, 0)
	batched := run(AuditBatched, 16)
	if perRound.Commitments != 2*rounds {
		t.Fatalf("per-round commitments = %d, want %d", perRound.Commitments, 2*rounds)
	}
	if batched.Commitments != 2*rounds/16 {
		t.Fatalf("batched commitments = %d, want %d", batched.Commitments, 2*rounds/16)
	}
	if batched.Agreements >= perRound.Agreements/2 {
		t.Fatalf("batched agreements %d not ≪ per-round %d", batched.Agreements, perRound.Agreements)
	}
	if batched.MessageEstimate >= perRound.MessageEstimate {
		t.Fatal("batched message estimate should be smaller")
	}
	if perRound.Reveals != 2*rounds || batched.Reveals != 2*rounds/16 {
		t.Fatalf("reveal counts: per-round %d, batched %d", perRound.Reveals, batched.Reveals)
	}
}

func TestAuditModeString(t *testing.T) {
	for _, m := range []AuditMode{AuditOff, AuditPerRound, AuditBatched} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
	if AuditMode(9).String() != "mode(9)" {
		t.Fatal("unknown mode name")
	}
}
