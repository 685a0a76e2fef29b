package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

// equivAdversaries are the network adversaries on processor 3 that the
// engine equivalence runs under, each built fresh per session (they keep
// state): one equivocates, scrambling its clock votes and withholding its
// agreement traffic from odd destinations; the other replays its previous
// pulse's outbox, so its messages arrive a pulse late and are read while
// the sender has moved on — into the next pulse's slabs and, at a phase
// start, the next value pool. Under the pool engine those reads race the
// sender's own step, which is what `make race` checks.
var equivAdversaries = []struct {
	name string
	adv  func() sim.Adversary
}{
	{"equivocate", func() sim.Adversary {
		evil := prng.New(77)
		return sim.EquivocateAdversary(func(to int, payload any) any {
			msg, ok := payload.(*distMsg)
			if !ok {
				return payload
			}
			forged := *msg
			forged.Tick = int(evil.Uint64() % 18)
			if to%2 == 1 {
				forged.HasInner = false
				forged.Inner = nil
			}
			return &forged
		})
	}},
	{"replay", sim.ReplayAdversary},
}

// buildEquivSession constructs one distributed session with the network
// adversary adv on processor 3. At n = 4 the driver picks the lockstep
// engine; pool overrides that through the engine's pulse function so both
// engines stay under test at a size where a play is cheap.
func buildEquivSession(t *testing.T, pool bool, adv sim.Adversary) Session {
	t.Helper()
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	byz := map[int]sim.Adversary{3: adv}
	s, err := NewSession(SessionConfig{
		Game: g, Seed: 9, DistProcs: n, DistFaults: f, DistByz: byz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool {
		d := EngineOf(s).(*DistSession)
		d.pulse = d.Net.StepConcurrent
	}
	return s
}

// TestDistEngineEquivalence proves the worker-pool pulse engine replays
// the lockstep execution exactly through the full middleware stack:
// identical outcomes, pulses, verdicts, and traffic, play for play.
func TestDistEngineEquivalence(t *testing.T) {
	for _, row := range equivAdversaries {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			const plays = 5
			lock := buildEquivSession(t, false, row.adv())
			pool := buildEquivSession(t, true, row.adv())
			defer pool.Close()
			for i := 0; i < plays; i++ {
				a, err := lock.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				b, err := pool.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Outcome.Equal(b.Outcome) || a.Pulse != b.Pulse {
					t.Fatalf("play %d diverges: lockstep %v@%d, pool %v@%d",
						i, a.Outcome, a.Pulse, b.Outcome, b.Pulse)
				}
				if EncodeFoulSet(a.Convicted) != EncodeFoulSet(b.Convicted) {
					t.Fatalf("play %d verdicts diverge: %v vs %v", i, a.Convicted, b.Convicted)
				}
			}
			sa, sb := lock.Stats(), pool.Stats()
			if sa.Pulses != sb.Pulses || sa.Messages != sb.Messages {
				t.Fatalf("traffic diverges: lockstep %d pulses/%d msgs, pool %d pulses/%d msgs",
					sa.Pulses, sa.Messages, sb.Pulses, sb.Messages)
			}
		})
	}
}

// TestDistEngineEquivalenceUnderCorruption repeats the equivalence check
// across a transient fault injected into both executions at the same
// point, covering the §4 recovery path on the pool engine.
func TestDistEngineEquivalenceUnderCorruption(t *testing.T) {
	for _, row := range equivAdversaries {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			lock := buildEquivSession(t, false, row.adv())
			pool := buildEquivSession(t, true, row.adv())
			defer pool.Close()
			play := func(s Session) RoundResult {
				t.Helper()
				r, err := s.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			for i := 0; i < 2; i++ {
				play(lock)
				play(pool)
			}
			// Identical corruption entropy on both networks.
			AsDist := func(s Session) *DistSession {
				d, ok := EngineOf(s).(*DistSession)
				if !ok {
					t.Fatal("not a distributed session")
				}
				return d
			}
			entA, entB := prng.New(1234), prng.New(1234)
			AsDist(lock).Net.Corrupt(entA.Uint64)
			AsDist(pool).Net.Corrupt(entB.Uint64)
			for i := 0; i < 3; i++ {
				a, b := play(lock), play(pool)
				if !a.Outcome.Equal(b.Outcome) || a.Pulse != b.Pulse {
					t.Fatalf("post-fault play %d diverges: %v@%d vs %v@%d",
						i, a.Outcome, a.Pulse, b.Outcome, b.Pulse)
				}
			}
		})
	}
}

// TestDistEngineByProcessorCount pins the one rule that picks the pulse
// engine and the Close contract that goes with it: below poolMinProcs a
// session steps on its caller's goroutine and starts none of its own; from
// poolMinProcs up it owns a worker pool, and Close releases it.
func TestDistEngineByProcessorCount(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n, f int
		pool bool
	}{
		{4, 1, false},
		{7, 2, false},
		{poolMinProcs, 1, true},
	} {
		base := settledGoroutines()
		s, err := NewSession(SessionConfig{Game: &nPlayerPD{n: tc.n}, Seed: 5, DistProcs: tc.n, DistFaults: tc.f})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Play(ctx); err != nil {
				t.Fatalf("n=%d play %d: %v", tc.n, i, err)
			}
		}
		if started := runtime.NumGoroutine() > base; started != tc.pool {
			t.Errorf("n=%d f=%d: %d goroutines before, %d after 3 plays; want a pool: %v",
				tc.n, tc.f, base, runtime.NumGoroutine(), tc.pool)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if now := settledGoroutines(); now > base {
			t.Errorf("n=%d f=%d: %d goroutines before the session, %d after Close", tc.n, tc.f, base, now)
		}
	}
}

// settledGoroutines reads the goroutine count once it has stopped falling:
// a closed pool's workers exit on their own, when the scheduler next runs
// them, so a read taken right after Close (this test's or an earlier
// one's) can still count them.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, quiet = now, 0
		}
	}
	return n
}
