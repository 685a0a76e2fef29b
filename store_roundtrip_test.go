package gameauthority_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	ga "gameauthority"
)

// roundTripCase builds one (game, options) pair freshly on every call so
// twin sessions never share stateful schemes or deviants.
type roundTripCase struct {
	name  string
	build func() (ga.Game, []ga.Option, error)
}

// roundTripCases covers every catalog game on the pure driver (honest and
// deviant variants) plus one case per remaining driver — the satellite
// property: Snapshot → Restore → Play^k equals uninterrupted Play^k
// everywhere, including mid-punishment and post-conviction states.
func roundTripCases(t *testing.T) []roundTripCase {
	t.Helper()
	var cases []roundTripCase
	for _, entry := range ga.Catalog() {
		entry := entry
		n := entry.Players(4)
		cases = append(cases, roundTripCase{
			name: "pure-" + entry.Name,
			build: func() (ga.Game, []ga.Option, error) {
				g, err := entry.Build(n)
				if err != nil {
					return nil, nil, err
				}
				return g, []ga.Option{
					ga.WithSeed(31),
					ga.WithPunishment(ga.NewDisconnectScheme(n, 0)),
				}, nil
			},
		})
		cases = append(cases, roundTripCase{
			// The commitment cheat is detected and convicted on the pure
			// driver, so snapshots land mid-punishment (player 0 excluded)
			// and post-conviction.
			name: "deviant-" + entry.Name,
			build: func() (ga.Game, []ga.Option, error) {
				g, err := entry.Build(n)
				if err != nil {
					return nil, nil, err
				}
				return g, []ga.Option{
					ga.WithSeed(31),
					ga.WithPunishment(ga.NewDisconnectScheme(n, 0)),
					ga.WithDeviant(0, ga.CommitmentCheat()),
				}, nil
			},
		})
	}
	uniform := func(g ga.Game) func(int, ga.Profile) ga.MixedProfile {
		mp := make(ga.MixedProfile, g.NumPlayers())
		for i := range mp {
			mp[i] = ga.Uniform(g.NumActions(i))
		}
		return func(int, ga.Profile) ga.MixedProfile { return mp }
	}
	cases = append(cases,
		roundTripCase{
			name: "mixed-pennies-withholder",
			build: func() (ga.Game, []ga.Option, error) {
				g := ga.MatchingPennies()
				return g, []ga.Option{
					ga.WithSeed(13),
					ga.WithStrategies(uniform(g)),
					ga.WithMixedAgents(&ga.MixedAgent{Withhold: func(round int) bool { return round == 1 }}, nil),
					ga.WithAudit(ga.AuditPerRound),
					ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
				}, nil
			},
		},
		roundTripCase{
			name: "mixed-batched",
			build: func() (ga.Game, []ga.Option, error) {
				g := ga.MatchingPennies()
				return g, []ga.Option{
					ga.WithSeed(13),
					ga.WithStrategies(uniform(g)),
					ga.WithAudit(ga.AuditBatched, ga.EpochLen(4)),
					ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
				}, nil
			},
		},
		roundTripCase{
			name: "rra-skewer",
			build: func() (ga.Game, []ga.Option, error) {
				return nil, []ga.Option{
					ga.WithSeed(17),
					ga.WithRRA(6, 3),
					ga.WithPunishment(ga.NewDisconnectScheme(6, 0)),
					ga.WithDeviant(0, ga.DistributionSkewer(0.9)),
				}, nil
			},
		},
		roundTripCase{
			name: "distributed-publicgoods",
			build: func() (ga.Game, []ga.Option, error) {
				g, err := ga.PublicGoods(4, 2)
				if err != nil {
					return nil, nil, err
				}
				return g, []ga.Option{
					ga.WithSeed(23),
					ga.WithDistributed(4, 1, nil),
				}, nil
			},
		},
		roundTripCase{
			name: "pure-bounded-history",
			build: func() (ga.Game, []ga.Option, error) {
				g, err := ga.CoordinationN(3, 2)
				if err != nil {
					return nil, nil, err
				}
				return g, []ga.Option{
					ga.WithSeed(41),
					ga.WithHistoryLimit(2),
					ga.WithPunishment(ga.NewDisconnectScheme(3, 0)),
				}, nil
			},
		},
	)
	return cases
}

// TestSnapshotRestoreProperty is the satellite property test: for every
// case and several snapshot points j, a session restored from its
// snapshot plays the next k rounds exactly as the uninterrupted original.
func TestSnapshotRestoreProperty(t *testing.T) {
	ctx := context.Background()
	const k = 4
	snapshotPoints := []int{0, 2, 5}
	if testing.Short() {
		snapshotPoints = []int{3}
	}
	sawConviction, sawExclusion := false, false
	for _, tc := range roundTripCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, j := range snapshotPoints {
				plays := j
				if isDistributed(tc.name) && plays > 2 {
					plays = 2 // keep the expensive driver cheap; 2 plays cross a full protocol period
				}
				g, opts, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				orig, err := ga.New(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < plays; i++ {
					if _, err := orig.Play(ctx); err != nil {
						t.Fatal(err)
					}
				}
				snap := orig.Snapshot()
				if snap.Convictions > 0 {
					sawConviction = true
				}
				for _, ex := range snap.Excluded {
					if ex {
						sawExclusion = true
					}
				}

				g2, opts2, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := ga.RestoreSession(ctx, g2,
					ga.RestoreTarget{Rounds: snap.Rounds, Digest: snap.Digest}, opts2...)
				if err != nil {
					t.Fatalf("restore at j=%d: %v", plays, err)
				}
				for i := 0; i < k; i++ {
					want, err := orig.Play(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Play(ctx)
					if err != nil {
						t.Fatal(err)
					}
					wc, gc := want.Clone(), got.Clone()
					if !reflect.DeepEqual(wc, gc) {
						t.Fatalf("j=%d future play %d diverged:\noriginal: %+v\nrestored: %+v", plays, i, wc, gc)
					}
				}
				if w, g := orig.Snapshot().Digest, restored.Snapshot().Digest; w != g {
					t.Fatalf("j=%d final digests diverged", plays)
				}
				if err := orig.Close(); err != nil {
					t.Fatal(err)
				}
				if err := restored.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// The property must have crossed the states the satellite names.
	if !sawConviction || !sawExclusion {
		t.Fatalf("property sweep never hit post-conviction (%t) / mid-punishment (%t) states",
			sawConviction, sawExclusion)
	}
}

func isDistributed(name string) bool {
	return name == "distributed-publicgoods"
}

// TestRestoreSessionRejectsTamperedDigest pins the façade-level failure
// mode: a digest from a different history must not restore.
func TestRestoreSessionRejectsTamperedDigest(t *testing.T) {
	ctx := context.Background()
	g := ga.PrisonersDilemma()
	s, err := ga.New(g, ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(ctx, 3); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if _, err := ga.RestoreSession(ctx, g,
		ga.RestoreTarget{Rounds: snap.Rounds, Digest: "deadbeef"}, ga.WithSeed(1)); !errors.Is(err, ga.ErrRestore) {
		t.Fatalf("err = %v, want ErrRestore", err)
	}
}
