package core

import (
	"fmt"
	"testing"

	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

// TestDistSessionSelfStabilization is Theorem 1 and Lemmas 2–3 (§4) on
// the driver the host runs: the self-stabilizing clock composed with the
// IC engine, one play per clock wrap. Every seed starts from a full
// transient fault (Net.Corrupt: clocks, agreement state, evidence and
// ledgers scrambled, messages in transit wiped) and must
//
//   - reconverge to `stable` consistent plays within maxReconverge pulses
//     (Lemma 2);
//   - then complete exactly one play per PulsesPerPlay(f) pulses at every
//     honest processor, consistent and legitimate (Lemma 3): for one
//     period on every seed, and for `periods` periods on the first seed
//     of each row, which is what keeps the table near a second at n = 10;
//
// and the rows with a Byzantine processor (stale replay; replay plus an
// 80 % dropper at f = 2) must do both through it (Theorem 1).
func TestDistSessionSelfStabilization(t *testing.T) {
	const (
		seeds   = 32
		stable  = 2
		periods = 50
		// maxReconverge bounds Lemma 2 for every shape below. A 64-seed
		// sweep of this table (seeds 0–63) observed a max of 74 pulses
		// (n10f2; 49–69 on the other rows), under 3.5 plays; the bound
		// leaves 2.2× headroom.
		maxReconverge = 160
	)
	replay := func() map[int]sim.Adversary {
		return map[int]sim.Adversary{3: sim.ReplayAdversary()}
	}
	replayDrop := func() map[int]sim.Adversary {
		return map[int]sim.Adversary{5: sim.ReplayAdversary(), 6: sim.DropAdversary(3, 0.8)}
	}
	for _, tc := range []struct {
		n, f int
		byz  func() map[int]sim.Adversary
		name string
	}{
		{4, 0, nil, "honest"},
		{4, 1, nil, "honest"},
		{4, 1, replay, "replay"},
		{7, 1, nil, "honest"},
		{7, 2, nil, "honest"},
		{7, 2, replayDrop, "replay+drop"},
		{10, 2, nil, "honest"},
	} {
		t.Run(fmt.Sprintf("n%df%d-%s", tc.n, tc.f, tc.name), func(t *testing.T) {
			// A table game: an out-of-range action left by the fault
			// indexes past its table, where nPlayerPD would not notice.
			g, err := game.PublicGoods(tc.n, 2)
			if err != nil {
				t.Fatal(err)
			}
			ppp := PulsesPerPlay(tc.f)
			worst := 0
			for seed := uint64(0); seed < seeds; seed++ {
				var byz map[int]sim.Adversary
				if tc.byz != nil {
					byz = tc.byz()
				}
				s, err := NewDistSession(tc.n, tc.f, g, make([]*Agent, tc.n), seed, byz)
				if err != nil {
					t.Fatal(err)
				}
				s.Net.Corrupt(prng.New(9000 + seed).Uint64)
				pulses := reconverge(s, stable, maxReconverge)
				if pulses > maxReconverge {
					t.Fatalf("seed %d: no %d consistent plays within %d pulses", seed, stable, maxReconverge)
				}
				worst = max(worst, pulses)
				horizon := 1
				if seed == 0 {
					horizon = periods
				}
				for period := 0; period < horizon; period++ {
					before := make([]int, len(s.Honest))
					for k, id := range s.Honest {
						before[k] = s.Procs[id].ResultCount()
					}
					s.Net.Run(ppp)
					for k, id := range s.Honest {
						if got := s.Procs[id].ResultCount() - before[k]; got != 1 {
							t.Fatalf("seed %d period %d: proc %d completed %d plays, want exactly 1", seed, period, id, got)
						}
					}
				}
				for _, r := range tail(s.Procs[s.Honest[0]].Results(), horizon+stable) {
					if err := game.ValidateProfile(g, r.Outcome); err != nil {
						t.Fatalf("seed %d: outcome %v: %v", seed, r.Outcome, err)
					}
					r.Outcome[0] = -1 // Results hands out copies: this must not reach the replica
				}
				if err := s.ConsistentResults(horizon + stable); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			t.Logf("worst reconvergence %d pulses (%d per play)", worst, ppp)
		})
	}
}

// reconverge steps s until every honest processor has recorded `stable`
// plays since the fault and their tails agree, returning the pulses taken
// (max+1 if that never happens within max).
func reconverge(s *DistSession, stable, max int) int {
	for pulse := 1; pulse <= max; pulse++ {
		s.Net.StepLockstep()
		ready := true
		for _, id := range s.Honest {
			if s.Procs[id].ResultCount() < stable {
				ready = false
				break
			}
		}
		if ready && s.ConsistentResults(stable) == nil {
			return pulse
		}
	}
	return max + 1
}
