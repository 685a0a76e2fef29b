package core

import (
	"errors"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

func TestSampledModeValidation(t *testing.T) {
	base := fig1Config(AuditSampled, 0, punish.NewDisconnect(2, 0), 1)
	if _, err := NewMixedSession(base); !errors.Is(err, ErrConfig) {
		t.Fatalf("SampleProb=0 accepted: %v", err)
	}
	base.SampleProb = 1.5
	if _, err := NewMixedSession(base); !errors.Is(err, ErrConfig) {
		t.Fatalf("SampleProb>1 accepted: %v", err)
	}
	base.SampleProb = 0.25
	if _, err := NewMixedSession(base); err != nil {
		t.Fatalf("valid sampled config rejected: %v", err)
	}
}

func TestStatisticalModeValidation(t *testing.T) {
	base := fig1Config(AuditStatistical, 0, punish.NewDisconnect(2, 0), 1)
	if _, err := NewMixedSession(base); !errors.Is(err, ErrConfig) {
		t.Fatalf("Window=0 accepted: %v", err)
	}
	base.Window = 50
	if _, err := NewMixedSession(base); !errors.Is(err, ErrConfig) {
		t.Fatalf("ChiThreshold=0 accepted: %v", err)
	}
	base.ChiThreshold = 6.6
	if _, err := NewMixedSession(base); err != nil {
		t.Fatalf("valid statistical config rejected: %v", err)
	}
}

func TestSampledModeEventuallyCatchesManipulator(t *testing.T) {
	// With p=0.2, the expected detection latency is 5 rounds; within 200
	// rounds detection is essentially certain.
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditSampled, 0, scheme, 7)
	cfg.SampleProb = 0.2
	s, err := NewMixedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caughtAt := -1
	for r := 1; r <= 200; r++ {
		if _, err := s.PlayRound(); err != nil {
			t.Fatal(err)
		}
		if s.Excluded(1) {
			caughtAt = r
			break
		}
	}
	if caughtAt < 0 {
		t.Fatal("sampled audit never caught the manipulator")
	}
	if caughtAt == 1 && s.Stats().Reveals == 0 {
		t.Fatal("exclusion without any audit")
	}
}

func TestSampledModeCheaperThanPerRound(t *testing.T) {
	const rounds = 200
	run := func(mode AuditMode, p float64) CostStats {
		cfg := fig1Config(mode, 0, punish.NewDisconnect(2, 0), 9)
		cfg.Agents = []*MixedAgent{nil, nil}
		cfg.Actual = nil
		cfg.SampleProb = p
		sess, s := newMixed(t, cfg)
		runRounds(t, sess, rounds)
		return s.Stats()
	}
	full := run(AuditPerRound, 0)
	sampled := run(AuditSampled, 0.1)
	if sampled.Agreements >= full.Agreements {
		t.Fatalf("sampled agreements %d not below per-round %d", sampled.Agreements, full.Agreements)
	}
	if sampled.Reveals >= full.Reveals/2 {
		t.Fatalf("sampled reveals %d not ≪ per-round %d", sampled.Reveals, full.Reveals)
	}
	// Commitments still happen every round (binding comes first).
	if sampled.Commitments != full.Commitments {
		t.Fatalf("sampled commitments %d != per-round %d", sampled.Commitments, full.Commitments)
	}
}

func TestSampledHonestNeverConvicted(t *testing.T) {
	cfg := fig1Config(AuditSampled, 0, punish.NewDisconnect(2, 0), 10)
	cfg.Agents = []*MixedAgent{nil, nil}
	cfg.Actual = nil
	cfg.SampleProb = 1.0 // audit every round
	sess, _ := newMixed(t, cfg)
	for _, fouls := range foulsByPlay(t, sess, 100) {
		if len(fouls) != 0 {
			t.Fatalf("honest agents convicted: %+v", fouls)
		}
	}
}

func TestStatisticalModeCatchesBiasedPlayer(t *testing.T) {
	// Agent 1 declares uniform but always plays Heads — an off-
	// distribution deviation §5.2 worries about. The frequency screen
	// accumulates suspicion until the reputation scheme excludes it.
	scheme := punish.NewReputation(2, 0.5, 0.4, 0)
	cfg := fig1Config(AuditStatistical, 0, scheme, 11)
	cfg.Actual = nil
	cfg.Agents = []*MixedAgent{nil, {Override: func(int, int) int { return 0 }}}
	cfg.Window = 50
	cfg.ChiThreshold = 6.63 // χ²(1) at 1%
	sess, s := newMixed(t, cfg)
	plays := foulsByPlay(t, sess, 600)
	if !s.Excluded(1) {
		t.Fatalf("biased player never excluded; standing %v", scheme.Standing(1))
	}
	// The honest agent survives.
	if s.Excluded(0) {
		t.Fatal("honest agent excluded by the statistical screen")
	}
	// And the fouls carry the right reason.
	foundSuspicious := false
	for _, fouls := range plays {
		for _, f := range fouls {
			if f.Agent == 1 && f.Reason == audit.ReasonSuspiciousDistribution {
				foundSuspicious = true
			}
			if f.Agent == 0 {
				t.Fatalf("honest agent flagged: %+v", f)
			}
		}
	}
	if !foundSuspicious {
		t.Fatal("no suspicious-distribution foul recorded")
	}
}

func TestStatisticalModeFlagsIllegitimateInstantly(t *testing.T) {
	scheme := punish.NewDisconnect(2, 0)
	cfg := fig1Config(AuditStatistical, 0, scheme, 12)
	cfg.Window = 1000 // never reaches a frequency check
	cfg.ChiThreshold = 6.63
	s, err := NewMixedSession(cfg) // agent 1 plays ManipulateAction (out of Π)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlayRound(); err != nil {
		t.Fatal(err)
	}
	if !s.Excluded(1) {
		t.Fatal("illegitimate action not flagged instantly in statistical mode")
	}
}

func TestStatisticalHonestRarelyFlagged(t *testing.T) {
	scheme := punish.NewReputation(2, 0.5, 0.2, 0.01)
	cfg := fig1Config(AuditStatistical, 0, scheme, 13)
	cfg.Actual = nil
	cfg.Agents = []*MixedAgent{nil, nil}
	cfg.Window = 100
	cfg.ChiThreshold = 10.8 // χ²(1) at 0.1%
	sess, s := newMixed(t, cfg)
	runRounds(t, sess, 2000)
	if s.Excluded(0) || s.Excluded(1) {
		t.Fatal("honest agents excluded by the screen at a 0.1% threshold")
	}
}

func TestExtendedModeStrings(t *testing.T) {
	if AuditSampled.String() != "sampled" {
		t.Fatalf("sampled name = %q", AuditSampled.String())
	}
	if AuditStatistical.String() != "statistical" {
		t.Fatalf("statistical name = %q", AuditStatistical.String())
	}
}

// fig1Config variants reuse mixed_test.go's helper; this test ensures the
// fields added for the new modes default correctly in old modes.
func TestLegacyModesIgnoreNewFields(t *testing.T) {
	cfg := fig1Config(AuditPerRound, 0, punish.NewDisconnect(2, 0), 14)
	cfg.SampleProb = 0.5 // ignored
	cfg.Window = 7       // ignored
	s, err := NewMixedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlayRound(); err != nil {
		t.Fatal(err)
	}
	_ = game.Profile{} // keep the import for clarity of evidence types
}
