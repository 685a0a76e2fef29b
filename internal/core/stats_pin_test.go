package core_test

import (
	"context"
	"reflect"
	"testing"

	"gameauthority/internal/core"
	"gameauthority/internal/deviate"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// TestSessionStatsPinned pins every SessionStats field and the snapshot
// digest of one seeded run per session kind against literals, so a change
// to the driver shell cannot move a counter, a cost or a digest unseen.
// The mixed-batched row closes mid-epoch, which audits the trailing epoch
// and so pins what Close adds.
func TestSessionStatsPinned(t *testing.T) {
	cg, err := game.CongestionGame(4, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mp := game.MatchingPennies()
	// Fractional payoffs, so per-play costs do not telescope exactly into
	// the cumulative cost.
	pd, err := game.PrisonersDilemmaParams(0.1, 1.3, 2.7, 3.9)
	if err != nil {
		t.Fatal(err)
	}
	uniform := game.MixedProfile{game.Uniform(2), game.Uniform(2)}
	strategies := func(int, game.Profile) game.MixedProfile { return uniform }
	cheat := map[int]core.Deviant{1: deviate.CommitmentCheat()}
	for _, tc := range []struct {
		name   string
		cfg    core.SessionConfig
		plays  int
		close  bool
		want   core.SessionStats
		digest string
	}{
		{
			name:  "pure-commitment-cheat",
			cfg:   core.SessionConfig{Game: cg, Seed: 17, Scheme: punish.NewDisconnect(4, 0), Deviants: cheat},
			plays: 8,
			want: core.SessionStats{Kind: core.KindPure, Players: 4, Rounds: 8,
				CumulativeCost: []float64{48, 48, 48, 48}, Excluded: []bool{false, true, false, false},
				Fouls: 1, Convictions: 1},
			digest: "6ff61932ac39f388859ad6425de66c35424da40a71ee78ac86718b8ddc6071d6",
		},
		{
			name: "mixed-per-round",
			cfg: core.SessionConfig{Game: pd, Seed: 19, Strategies: strategies, Mode: core.AuditPerRound,
				Scheme: punish.NewDisconnect(2, 0), Deviants: cheat},
			plays: 8,
			want: core.SessionStats{Kind: core.KindMixed, Players: 2, Rounds: 8,
				CumulativeCost: []float64{13.200000000000003, 13.2}, Excluded: []bool{false, true},
				Fouls: 3, Convictions: 1,
				Protocol: core.CostStats{Commitments: 16, Reveals: 16, Agreements: 39, MessageEstimate: 936}},
			digest: "1ba2e57b82e8f290d9bb01f1dd3fba507af30bfafe615e3dd751af533228c813",
		},
		{
			name: "mixed-batched-closed",
			cfg: core.SessionConfig{Game: mp, Seed: 23, Strategies: strategies, Mode: core.AuditBatched, EpochLen: 16,
				Scheme: punish.NewDisconnect(2, 0), Deviants: cheat},
			plays: 5,
			want: core.SessionStats{Kind: core.KindMixed, Players: 2, Rounds: 5,
				CumulativeCost: []float64{1, -1}, Excluded: []bool{false, true},
				Fouls: 1, Convictions: 1,
				Protocol: core.CostStats{Commitments: 2, Reveals: 2, Agreements: 12, MessageEstimate: 288}},
			digest: "c9f35b7c2cbe922e5964e72188da27532a599ebd7253ecadbe5f39461b5d1ee4",
			close:  true,
		},
		{
			name: "rra-byzantine",
			cfg: core.SessionConfig{Seed: 29, RRAAgents: 6, RRAResources: 3, Scheme: punish.NewDisconnect(6, 0),
				RRAByz: map[int]func(int, []int64) int{2: func(int, []int64) int { return 0 }}},
			plays: 8,
			want: core.SessionStats{Kind: core.KindRRA, Players: 6, Rounds: 8,
				CumulativeCost: []float64{76, 72, 77, 78, 79, 75}, Excluded: []bool{false, false, true, false, false, false},
				Fouls: 1, Convictions: 1, MaxLoad: 17},
			digest: "bee59bdd79ecd76a27f8392d198e5ac83d06414f752f64b34f8696efa4b3a99f",
		},
		{
			name:  "distributed-4-1",
			cfg:   core.SessionConfig{Game: cg, Seed: 31, DistProcs: 4, DistFaults: 1, Deviants: cheat},
			plays: 4,
			want: core.SessionStats{Kind: core.KindDistributed, Players: 4, Rounds: 4,
				CumulativeCost: []float64{24, 24, 24, 24}, Excluded: []bool{false, true, false, false},
				Fouls: 4, Convictions: 1, Pulses: 71, Messages: 1136},
			digest: "ccc6207091560ee0ba1e58c608e173ad3eacc4f6c9c46f520c1152d12e5cb063",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := core.NewSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background(), tc.plays); err != nil {
				t.Fatal(err)
			}
			if tc.close {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			st, digest := s.Stats(), s.Snapshot().Digest
			if !reflect.DeepEqual(st, tc.want) {
				t.Errorf("Stats() =\n%#v\nwant\n%#v", st, tc.want)
			}
			if digest != tc.digest {
				t.Errorf("Snapshot().Digest = %q, want %q", digest, tc.digest)
			}
		})
	}
}
