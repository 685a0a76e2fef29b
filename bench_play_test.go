// Per-driver play benchmarks of the middleware hot path, for measuring
// while you work (`go test -run '^$' -bench '^BenchmarkPlay' -benchmem .`).
// The numbers of record are the benchmark ledger's core.pure_play_ns and
// core.dist_play_n{4,7}_us rows (bench/README.md); `make bench-smoke` runs
// these once each so they cannot rot. The experiment-level benchmarks live
// in bench_test.go.
package gameauthority_test

import (
	"context"
	"testing"

	ga "gameauthority"
)

// warmPlays bounds each bench session's history ring; running one full
// ring of plays before the timer starts puts every driver in its
// steady state (scratch sized, ring slots allocated).
const warmPlays = 64

func warmSession(b *testing.B, s ga.Session) {
	b.Helper()
	if _, err := s.Run(context.Background(), warmPlays); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPlayPure measures one fully audited pure-strategy play
// (commit → reveal → SHA-256 audit → best-response check → publish) on a
// bounded-history session: the allocation-free hot path.
func BenchmarkPlayPure(b *testing.B) {
	ctx := context.Background()
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithHistoryLimit(warmPlays))
	if err != nil {
		b.Fatal(err)
	}
	warmSession(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Play(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayMixed measures one mixed-strategy play under the per-round
// audit discipline (seed commitment, PRG replay audit, agreement
// accounting).
func BenchmarkPlayMixed(b *testing.B) {
	ctx := context.Background()
	strategies := ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	s, err := ga.New(ga.MatchingPennies(),
		ga.WithStrategies(func(int, ga.Profile) ga.MixedProfile { return strategies }),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithAudit(ga.AuditPerRound),
		ga.WithSeed(1),
		ga.WithHistoryLimit(warmPlays))
	if err != nil {
		b.Fatal(err)
	}
	warmSession(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Play(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayRRA measures one supervised resource-allocation play
// (water-filling equilibrium, committed-seed sampling, per-round audit)
// at n=8 agents over b=4 resources.
func BenchmarkPlayRRA(b *testing.B) {
	ctx := context.Background()
	s, err := ga.New(nil, ga.WithRRA(8, 4),
		ga.WithPunishment(ga.NewDisconnectScheme(8, 0)),
		ga.WithSeed(1),
		ga.WithHistoryLimit(warmPlays))
	if err != nil {
		b.Fatal(err)
	}
	warmSession(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Play(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayDistributed measures one full distributed play — clock
// sync plus four interactive consistencies over the synchronous network —
// at n=4, f=1, which the driver steps on the lockstep engine.
func BenchmarkPlayDistributed(b *testing.B) {
	ctx := context.Background()
	g4, err := ga.PublicGoods(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ga.New(g4, ga.WithDistributed(4, 1, nil),
		ga.WithSeed(1),
		ga.WithHistoryLimit(warmPlays))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	warmSession(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Play(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
