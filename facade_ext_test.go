package gameauthority_test

import (
	"testing"

	ga "gameauthority"
)

func TestFacadeTableGames(t *testing.T) {
	mg, err := ga.MinorityGame(5)
	if err != nil {
		t.Fatal(err)
	}
	if mg.NumPlayers() != 5 || mg.NumActions(0) != 2 {
		t.Fatal("minority game shape wrong")
	}
	pg, err := ga.PublicGoods(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := ga.PureNashEquilibria(pg, 0)
	if err != nil || len(pnes) != 1 {
		t.Fatalf("public goods PNEs = %v, %v", pnes, err)
	}
	tg, err := ga.NewTableGame("custom", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.SetCost(0, ga.Profile{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if tg.Cost(0, ga.Profile{1, 1}) != 3 {
		t.Fatal("table cost not stored")
	}
}

func TestFacadeSampledAudit(t *testing.T) {
	sess, s := mixedDriver(t, ga.MatchingPennies(), fig1Options(3,
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithAudit(ga.AuditSampled, ga.SampleProb(0.5)))...)
	playRounds(t, sess, 100)
	if !s.Excluded(1) {
		t.Fatal("sampled audit never caught the manipulator through the facade")
	}
}

func TestFacadeStatisticalAudit(t *testing.T) {
	biased := &ga.MixedAgent{Override: func(int, int) int { return 0 }}
	sess, s := mixedDriver(t, ga.MatchingPennies(),
		ga.WithStrategies(uniform2),
		ga.WithMixedAgents(nil, biased),
		ga.WithPunishment(ga.NewReputationScheme(2, 0.5, 0.4, 0)),
		ga.WithAudit(ga.AuditStatistical, ga.Window(50), ga.ChiThreshold(6.63)),
		ga.WithSeed(4))
	playRounds(t, sess, 600)
	if !s.Excluded(1) {
		t.Fatal("statistical audit never flagged the biased player through the facade")
	}
}

func TestFacadeReelection(t *testing.T) {
	cfg := ga.ReelectionConfig{
		Candidates: []ga.Candidate{
			{Game: ga.PrisonersDilemma(), Description: "pd"},
			{Game: ga.CoordinationGame(), Description: "coord"},
		},
		Voters: 3,
		Prefs: func(term, voter int) []int {
			if term == 0 {
				return []int{0, 1}
			}
			return []int{1, 0}
		},
		TermLength: 4,
		Seed:       5,
	}
	outcomes, err := ga.ReelectionSeries(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0].Winner != 0 || outcomes[1].Winner != 1 {
		t.Fatalf("winners = %d,%d; want 0,1", outcomes[0].Winner, outcomes[1].Winner)
	}
	terms, err := ga.PlayTerms(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || terms[0].SocialCost <= 0 {
		t.Fatalf("terms = %+v", terms)
	}
}

func TestFacadeFrequencyCheck(t *testing.T) {
	stat, suspicious, err := ga.FrequencyCheck(ga.Uniform(2), []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 6.63)
	if err != nil {
		t.Fatal(err)
	}
	if !suspicious || stat <= 6.63 {
		t.Fatalf("10 heads vs uniform not flagged: stat=%v", stat)
	}
}

func TestFacadePunishmentSchemes(t *testing.T) {
	for _, s := range []ga.PunishmentScheme{
		ga.NewDisconnectScheme(2, 0),
		ga.NewReputationScheme(2, 0.5, 0.2, 0.01),
		ga.NewDepositScheme(2, 3, 1),
	} {
		if s.Excluded(0) {
			t.Fatalf("%s: fresh agent excluded", s.Name())
		}
		if err := s.Punish(0, 0, 1); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeFoulReasonNames(t *testing.T) {
	for _, r := range []ga.FoulReason{
		ga.FoulIllegitimateAction, ga.FoulCommitMismatch, ga.FoulMissingReveal,
		ga.FoulNotBestResponse, ga.FoulSeedMismatch, ga.FoulSuspiciousDistribution,
	} {
		if r.String() == "" || r.Severity() <= 0 {
			t.Fatalf("reason %d badly exported", r)
		}
	}
}

// TestAsAccessorsMatchKind: each As* accessor hands back the engine of its
// own session kind and nil for every other kind, and for a Session that
// NewSession did not build (a hosted session wraps one).
func TestAsAccessorsMatchKind(t *testing.T) {
	build := func(g ga.Game, opts ...ga.Option) ga.Session {
		t.Helper()
		s, err := ga.New(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	found := func(s ga.Session) [4]bool {
		return [4]bool{ga.AsPure(s) != nil, ga.AsMixed(s) != nil, ga.AsRRA(s) != nil, ga.AsDistributed(s) != nil}
	}
	for i, s := range []ga.Session{
		build(ga.PrisonersDilemma()),
		build(ga.MatchingPennies(), ga.WithStrategies(uniform2)),
		build(nil, ga.WithRRA(4, 2)),
		build(ga.PrisonersDilemma(), ga.WithDistributed(2, 0, nil)),
	} {
		var want [4]bool
		want[i] = true
		if got := found(s); got != want {
			t.Errorf("%s session: As* found %v, want %v", s.Stats().Kind, got, want)
		}
	}
	a := ga.NewAuthority()
	defer a.Close()
	h, err := a.Host("hosted", build(ga.PrisonersDilemma()))
	if err != nil {
		t.Fatal(err)
	}
	if got := found(h); got != [4]bool{} {
		t.Errorf("hosted session: As* found %v, want none", got)
	}
}
