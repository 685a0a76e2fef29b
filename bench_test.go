// Benchmarks: one per experiment in DESIGN.md §2 that has a headline
// quantity to time (the self-stabilization and agreement experiments are
// asserted by cmd/experiments' test instead). Each bench regenerates its
// paper artifact (Fig. 1 analysis, Theorem 5 curves, PoM reduction,
// audit/punishment/voting ablations) and reports the headline quantity
// via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness's performance profile. The
// full tables are printed by cmd/experiments.
package gameauthority_test

import (
	"fmt"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
	"gameauthority/internal/stats"
)

// BenchmarkEF1MatchingPennies regenerates Fig. 1's manipulation analysis:
// B's expected gain without the authority (≈ +4/round) and with it (≈ 0).
func BenchmarkEF1MatchingPennies(b *testing.B) {
	const rounds = 2000
	var gainUnsup, gainSup float64
	for i := 0; i < b.N; i++ {
		unsupSess, unsup := mixedDriver(b, ga.MatchingPennies(), fig1Options(uint64(i), ga.WithAudit(ga.AuditOff))...)
		playRounds(b, unsupSess, rounds)
		supSess, sup := mixedDriver(b, ga.MatchingPennies(), fig1Options(uint64(i),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), ga.WithAudit(ga.AuditPerRound))...)
		playRounds(b, supSess, rounds)
		gainUnsup = unsup.CumulativePayoff(1) / rounds
		gainSup = sup.CumulativePayoff(1) / rounds
	}
	b.ReportMetric(gainUnsup, "gain-unsupervised/round")
	b.ReportMetric(gainSup, "gain-supervised/round")
}

// BenchmarkET5RRA regenerates one Theorem 5 curve point: R(k) for the
// supervised RRA game at n=8, b=4, k=1000.
func BenchmarkET5RRA(b *testing.B) {
	const (
		n, bb, k = 8, 4, 1000
	)
	var ratio float64
	for i := 0; i < b.N; i++ {
		sess, h := rraDriver(b, n, bb, uint64(i))
		playRounds(b, sess, k)
		r, err := ga.MultiRoundAnarchyCost(float64(h.RRA().MaxLoad()), ga.OptMaxLoad(n, bb, k))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(ratio, "R(k)")
	b.ReportMetric(ga.Theorem5Bound(bb, k), "bound(1+2b/k)")
}

// BenchmarkEPoMInoculation regenerates the price-of-malice comparison on a
// 16x16 grid with 6 Byzantine nodes: selfish-only vs +Byzantine vs
// +Byzantine+authority.
func BenchmarkEPoMInoculation(b *testing.B) {
	var pomNoAuth, pomAuth float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		base, err := game.NewInoculation(16, 16, 1, 48)
		if err != nil {
			b.Fatal(err)
		}
		secure, _ := base.Equilibrium(seed, 200)
		costHonestOnly := base.SocialCost(secure, base.HonestNodes())

		byzIDs := []int{50, 51, 52, 100, 101, 102}
		withByz, _ := game.NewInoculation(16, 16, 1, 48)
		withByz.SetByzantine(byzIDs...)
		secureB, _ := withByz.Equilibrium(seed, 200)
		costWith := withByz.SocialCost(secureB, withByz.HonestNodes())

		authority, _ := game.NewInoculation(16, 16, 1, 48)
		authority.SetByzantine(byzIDs...)
		secureA, _ := authority.Equilibrium(seed, 200)
		for _, liar := range authority.AuditByzantine(secureA) {
			authority.Disconnect(liar)
		}
		secureA2, _ := authority.Equilibrium(seed+1, 200)
		costAuth := authority.SocialCost(secureA2, authority.HonestNodes())

		p1, err := stats.PriceOfMalice(costWith, costHonestOnly)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := stats.PriceOfMalice(costAuth, costHonestOnly)
		if err != nil {
			b.Fatal(err)
		}
		pomNoAuth, pomAuth = p1, p2
	}
	b.ReportMetric(pomNoAuth, "PoM-no-authority")
	b.ReportMetric(pomAuth, "PoM-authority")
}

// BenchmarkEAUDAuditing compares the per-round and batched (§5.3)
// disciplines' agreement overhead for 64 rounds.
func BenchmarkEAUDAuditing(b *testing.B) {
	const rounds = 64
	run := func(seed uint64, audit ga.Option) float64 {
		sess, s := mixedDriver(b, ga.MatchingPennies(), ga.WithStrategies(uniform2),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), audit, ga.WithSeed(seed))
		playRounds(b, sess, rounds)
		if err := s.CloseEpoch(); err != nil {
			b.Fatal(err)
		}
		return float64(s.Stats().Agreements)
	}
	var perRound, batched float64
	for i := 0; i < b.N; i++ {
		perRound = run(uint64(i), ga.WithAudit(ga.AuditPerRound))
		batched = run(uint64(i), ga.WithAudit(ga.AuditBatched, ga.EpochLen(16)))
	}
	b.ReportMetric(perRound/rounds, "agreements/round(per-round)")
	b.ReportMetric(batched/rounds, "agreements/round(batched-T16)")
}

// BenchmarkEPUNPunishment compares how many rounds each scheme needs to
// neutralize the Fig. 1 manipulator.
func BenchmarkEPUNPunishment(b *testing.B) {
	roundsTo := func(scheme ga.PunishmentScheme, seed uint64) float64 {
		_, s := mixedDriver(b, ga.MatchingPennies(), fig1Options(seed,
			ga.WithPunishment(scheme), ga.WithAudit(ga.AuditPerRound))...)
		for r := 1; r <= 200; r++ {
			if _, err := s.PlayRound(); err != nil {
				b.Fatal(err)
			}
			if s.Excluded(1) {
				return float64(r)
			}
		}
		return 201
	}
	var disc, rep, dep float64
	for i := 0; i < b.N; i++ {
		disc = roundsTo(punish.NewDisconnect(2, 0), uint64(i))
		rep = roundsTo(punish.NewReputation(2, 0.5, 0.2, 0), uint64(i))
		dep = roundsTo(punish.NewDeposit(2, 3, 1), uint64(i))
	}
	b.ReportMetric(disc, "rounds-to-exclude(disconnect)")
	b.ReportMetric(rep, "rounds-to-exclude(reputation)")
	b.ReportMetric(dep, "rounds-to-exclude(deposit)")
}

// BenchmarkEVOTEVoting compares naive and robust legislative elections
// under a strategic voter.
func BenchmarkEVOTEVoting(b *testing.B) {
	candidates := []ga.Candidate{
		{Game: ga.MatchingPennies(), Description: "mp"},
		{Game: ga.PrisonersDilemma(), Description: "pd"},
		{Game: ga.CoordinationGame(), Description: "coord"},
	}
	voters := []ga.Voter{
		{Prefs: []int{0, 1, 2}}, {Prefs: []int{0, 1, 2}},
		{Prefs: []int{1, 0, 2}}, {Prefs: []int{1, 0, 2}},
		{Prefs: []int{2, 1, 0}, Manipulative: true},
	}
	var naiveWinner, robustWinner int
	for i := 0; i < b.N; i++ {
		n, err := ga.NaiveElection(candidates, voters)
		if err != nil {
			b.Fatal(err)
		}
		r, err := ga.RobustElection(candidates, voters, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		naiveWinner, robustWinner = n.Winner, r.Winner
	}
	b.ReportMetric(float64(naiveWinner), "naive-winner")
	b.ReportMetric(float64(robustWinner), "robust-winner")
}

// BenchmarkDistributedPlay measures full distributed plays (4 processors,
// f=1: clock sync + 4 interactive consistencies per play).
func BenchmarkDistributedPlay(b *testing.B) {
	// A 4-player dominant-strategy game (one player per processor).
	s := distDriver(b, benchNPD{n: 4}, 4, 1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunPlays(1)
	}
	b.StopTimer()
	// Compare the last three plays even when b.N is smaller (-benchtime 1x).
	if b.N < 3 {
		s.RunPlays(3 - b.N)
	}
	if err := s.ConsistentResults(3); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEEXTSampled measures the §1.1 sampled-audit extension: detection
// latency of the Fig. 1 manipulator at a 20% spot-check rate.
func BenchmarkEEXTSampled(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		_, s := mixedDriver(b, ga.MatchingPennies(), fig1Options(uint64(i),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
			ga.WithAudit(ga.AuditSampled, ga.SampleProb(0.2)))...)
		latency = 201
		for r := 1; r <= 200; r++ {
			if _, err := s.PlayRound(); err != nil {
				b.Fatal(err)
			}
			if s.Excluded(1) {
				latency = float64(r)
				break
			}
		}
	}
	b.ReportMetric(latency, "rounds-to-catch(p=0.2)")
}

// benchNPD is an n-player dominant-strategy game for distributed benches.
type benchNPD struct{ n int }

func (g benchNPD) NumPlayers() int    { return g.n }
func (g benchNPD) NumActions(int) int { return 2 }
func (g benchNPD) Cost(i int, p ga.Profile) float64 {
	coop := 0
	for _, a := range p {
		if a == 0 {
			coop++
		}
	}
	base := float64(g.n - coop)
	if p[i] == 0 {
		return base + 2
	}
	return base
}

var _ = fmt.Sprintf // keep fmt for ad-hoc debugging of benches
