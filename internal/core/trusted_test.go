package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

func TestNewPureSessionValidation(t *testing.T) {
	g := game.PrisonersDilemma()
	if _, err := NewPureSession(nil, nil, nil, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil game: %v", err)
	}
	if _, err := NewPureSession(g, []*Agent{HonestPure(g, 0)}, nil, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("agent arity: %v", err)
	}
	if _, err := NewPureSession(g, []*Agent{HonestPure(g, 0), {}}, nil, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("agent without Choose: %v", err)
	}
}

func TestPureSessionHonestConvergesToNash(t *testing.T) {
	g := game.PrisonersDilemma()
	agents := []*Agent{HonestPure(g, 0), HonestPure(g, 1)}
	sess, s := newPure(t, g, agents, punish.NewDisconnect(2, 0), 7)
	last, err := sess.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Best-response play settles on the unique PNE (defect, defect).
	if !last.Outcome.Equal(game.Profile{1, 1}) {
		t.Fatalf("outcome = %v, want defect/defect", last.Outcome)
	}
	if len(last.Verdict.Fouls) != 0 {
		t.Fatalf("honest play fouled: %+v", last.Verdict.Fouls)
	}
	if s.Round() != 10 || sess.Stats().Rounds != 10 || len(sess.Results()) != 10 {
		t.Fatalf("rounds = %d, stats %d, history %d", s.Round(), sess.Stats().Rounds, len(sess.Results()))
	}
}

func TestPureSessionDetectsAndRestrictsManipulator(t *testing.T) {
	// The elected game is matching pennies; agent B secretly plays the
	// Fig. 1 Manipulate action (index 2, illegitimate). The authority
	// must flag it on the first audited play, disconnect B, and restrict
	// its future actions.
	g := game.MatchingPennies()
	manipulator := &Agent{Choose: func(int, game.Profile) int { return game.ManipulateAction }}
	agents := []*Agent{HonestPure(g, 0), manipulator}
	scheme := punish.NewDisconnect(2, 0)
	s, err := NewPureSession(g, agents, scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.PlayRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Verdict.Fouls) != 1 || first.Verdict.Fouls[0].Agent != 1 ||
		first.Verdict.Fouls[0].Reason != audit.ReasonIllegitimateAction {
		t.Fatalf("first verdict = %+v, want illegitimate-action by 1", first.Verdict.Fouls)
	}
	// The published outcome must not contain the illegal action.
	if err := game.ValidateProfile(g, first.Outcome); err != nil {
		t.Fatalf("published outcome invalid: %v", err)
	}
	if !s.Excluded(1) {
		t.Fatal("manipulator not excluded after conviction")
	}
	// From now on the executive plays for B: no further fouls, outcomes
	// always legitimate.
	for i := 0; i < 5; i++ {
		res, err := s.PlayRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Verdict.Fouls) != 0 {
			t.Fatalf("round %d: fouls after exclusion: %+v", res.Round, res.Verdict.Fouls)
		}
		if len(res.Excluded) != 1 || res.Excluded[0] != 1 {
			t.Fatalf("round %d: excluded = %v", res.Round, res.Excluded)
		}
		if err := game.ValidateProfile(g, res.Outcome); err != nil {
			t.Fatalf("round %d outcome invalid: %v", res.Round, err)
		}
	}
}

func TestPureSessionDetectsTamperedReveal(t *testing.T) {
	g := game.PrisonersDilemma()
	cheat := &Agent{
		Choose: func(round int, prev game.Profile) int { return 0 },
		TamperOpening: func(round int, op commit.Opening) commit.Opening {
			op.Value = audit.EncodeAction(1) // claim defect after committing cooperate
			return op
		},
	}
	s, err := NewPureSession(g, []*Agent{HonestPure(g, 0), cheat}, punish.NewDisconnect(2, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.PlayRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdict.Fouls) != 1 || res.Verdict.Fouls[0].Reason != audit.ReasonCommitMismatch {
		t.Fatalf("verdict = %+v, want commit-mismatch", res.Verdict.Fouls)
	}
	if !s.Excluded(1) {
		t.Fatal("reveal tamperer not excluded")
	}
}

func TestPureSessionDetectsWithheldReveal(t *testing.T) {
	g := game.PrisonersDilemma()
	silent := &Agent{
		Choose:   func(int, game.Profile) int { return 0 },
		Withhold: func(round int) bool { return true },
	}
	s, err := NewPureSession(g, []*Agent{silent, HonestPure(g, 1)}, punish.NewDisconnect(2, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.PlayRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdict.Fouls) != 1 || res.Verdict.Fouls[0].Reason != audit.ReasonMissingReveal {
		t.Fatalf("verdict = %+v", res.Verdict.Fouls)
	}
}

func TestPureSessionDetectsNonBestResponse(t *testing.T) {
	g := game.PrisonersDilemma()
	stubborn := &Agent{Choose: func(int, game.Profile) int { return 0 }} // always cooperate
	scheme := punish.NewReputation(2, 0.5, 0.2, 0)
	s, err := NewPureSession(g, []*Agent{stubborn, HonestPure(g, 1)}, scheme, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: no prev, cooperate is legitimate → no foul.
	res, err := s.PlayRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdict.Fouls) != 0 {
		t.Fatalf("round 0 fouls: %+v", res.Verdict.Fouls)
	}
	// Round 1: prev outcome exists; cooperating is not a best response.
	res, err = s.PlayRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdict.Fouls) != 1 || res.Verdict.Fouls[0].Agent != 0 ||
		res.Verdict.Fouls[0].Reason != audit.ReasonNotBestResponse {
		t.Fatalf("round 1 verdict = %+v", res.Verdict.Fouls)
	}
	// Reputation decays geometrically but is not yet below threshold.
	if s.Excluded(0) {
		t.Fatal("single strategic foul should not yet exclude under reputation")
	}
	// Keep cooperating: reputation eventually collapses.
	for i := 0; i < 10; i++ {
		if _, err := s.PlayRound(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Excluded(0) {
		t.Fatalf("repeat offender not excluded; reputation %v", scheme.Standing(0))
	}
}

func TestPureSessionNilSchemeNoPunishment(t *testing.T) {
	g := game.MatchingPennies()
	manipulator := &Agent{Choose: func(int, game.Profile) int { return game.ManipulateAction }}
	s, err := NewPureSession(g, []*Agent{HonestPure(g, 0), manipulator}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := s.PlayRound()
		if err != nil {
			t.Fatal(err)
		}
		// Fouls are still *detected* (the audit runs) but never punished.
		if len(res.Verdict.Fouls) == 0 {
			t.Fatal("audit silent without scheme")
		}
		if s.Excluded(1) {
			t.Fatal("exclusion without scheme")
		}
	}
}

func TestPureSessionCumulativeCostTracking(t *testing.T) {
	g := game.PrisonersDilemma()
	sess, s := newPure(t, g, []*Agent{HonestPure(g, 0), HonestPure(g, 1)}, nil, 9)
	runRounds(t, sess, 4)
	// Round 0: (0,0) costs 1+1; rounds 1..3: (1,1) costs 2+2 each.
	wantEach := 1.0 + 3*2.0
	for i := 0; i < 2; i++ {
		if got := s.CumulativeCost(i); math.Abs(got-wantEach) > 1e-12 {
			t.Fatalf("agent %d cumulative cost = %v, want %v", i, got, wantEach)
		}
		if got := s.CumulativePayoff(i); math.Abs(got+wantEach) > 1e-12 {
			t.Fatalf("agent %d payoff = %v, want %v", i, got, -wantEach)
		}
	}
}
