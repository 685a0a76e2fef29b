package bap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestICEnginePhaseZeroAlloc is the hard per-pulse allocation gate for the
// distributed driver's agreement engine: a complete warm interactive-
// consistency phase — Reset, which copies each private value into the
// engine's pool, dissemination, every EIG round, decision — must not
// allocate at all, across all processors, at both shapes the ledger's
// distributed workload runs and at (10, 2), the smallest shape on the
// worker pool. The values are 64 bytes, the width of a hex digest. Any
// heap traffic on this path multiplies by pulses × processors × plays, so
// the budget is exactly zero, not "small".
func TestICEnginePhaseZeroAlloc(t *testing.T) {
	for _, shape := range [][2]int{{4, 1}, {7, 2}, {10, 2}} {
		n, f := shape[0], shape[1]
		t.Run(fmt.Sprintf("n%df%d", n, f), func(t *testing.T) {
			engines := newICs(t, n, f)
			vals := make([]Value, n)
			for i := range vals {
				sum := sha256.Sum256(fmt.Appendf(nil, "value-%d", i))
				vals[i] = hex.AppendEncode(nil, sum[:])
			}
			runPhase := phaseRunner(engines, vals)
			// Warm: the arenas are pre-sized, but each rotating value pool
			// grows to the phase's bytes on its first use.
			for range icSlabRounds {
				runPhase()
			}
			for i, e := range engines {
				if !e.Done() {
					t.Fatalf("engine %d not done after %d pulses", i, TotalPulses(f))
				}
				for s, v := range e.VectorRef() {
					if string(v) != string(vals[s]) {
						t.Fatalf("engine %d vector[%d] = %q, want %q", i, s, v, vals[s])
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, runPhase); allocs != 0 {
				t.Fatalf("warm IC phase allocates %v times per phase, want 0", allocs)
			}
		})
	}
}

// phaseRunner returns a function that runs one fault-free phase over the
// engines, engine i proposing vals[i].
func phaseRunner(engines []*IC, vals []Value) func() {
	lists := make([][]any, len(engines))
	pulse := 0
	return func() {
		for i, e := range engines {
			e.Reset(vals[i])
		}
		for k := 0; k < TotalPulses(engines[0].f); k++ {
			for _, e := range engines {
				for from := range engines {
					for _, payload := range lists[from] {
						e.Deliver(from, payload)
					}
				}
			}
			for i, e := range engines {
				lists[i], _ = e.EndPulse(pulse)
			}
			pulse++
		}
	}
}

// TestICFloodThenQuietPhaseZeroAlloc floods the engines' value pools: at
// (7, 2), the f Byzantine processors relay a value never seen before in
// every pair of every round, for as many phases as there are rotating
// pools. The honest engines must still reach interactive consistency, and
// once the flood has grown the pools, their indexes and the per-sender
// translation tables, a fault-free phase must not allocate.
func TestICFloodThenQuietPhaseZeroAlloc(t *testing.T) {
	n, f := 7, 2
	engines := newICs(t, n, f)
	next := 0
	flood := forgePairs(func(int) string {
		next++
		return fmt.Sprintf("flood-%d", next)
	})
	byz := map[int]forger{1: flood, 4: flood}
	private := make([]string, n)
	for i := range private {
		private[i] = fmt.Sprintf("v%d", i)
	}
	for range icSlabRounds {
		checkIC(t, runIC(t, engines, private, byz), private, byz)
	}
	if next < 1000 {
		t.Fatalf("the flood sent only %d distinct values", next)
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(private[i])
	}
	runPhase := phaseRunner(engines, vals)
	if allocs := testing.AllocsPerRun(20, runPhase); allocs != 0 {
		t.Fatalf("a fault-free phase after the flood allocates %v times, want 0", allocs)
	}
	for i, e := range engines {
		for s, v := range e.VectorRef() {
			if string(v) != private[s] {
				t.Fatalf("engine %d vector[%d] = %q after the flood, want %q", i, s, v, private[s])
			}
		}
	}
}

// TestICEngineResetReuses pins that Reset rewinds the engine rather than
// rebuilding it: back-to-back phases on one engine set agree on fresh
// values each time.
func TestICEngineResetReuses(t *testing.T) {
	n, f := 4, 1
	engines := make([]*IC, n)
	for i := range engines {
		e, err := NewIC(i, n, f)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	lists := make([][]any, n)
	pulse := 0
	for phase := 0; phase < 3; phase++ {
		want := make([]string, n)
		for i := range engines {
			want[i] = string(rune('a'+phase)) + string(rune('0'+i))
			engines[i].Reset(Value(want[i]))
		}
		for k := 0; k < TotalPulses(f); k++ {
			for _, e := range engines {
				for from := range engines {
					for _, payload := range lists[from] {
						e.Deliver(from, payload)
					}
				}
			}
			for i, e := range engines {
				out, _ := e.EndPulse(pulse)
				lists[i] = out
			}
			pulse++
		}
		for i, e := range engines {
			if !e.Done() {
				t.Fatalf("phase %d: engine %d undecided", phase, i)
			}
			for s, v := range e.VectorRef() {
				if string(v) != want[s] {
					t.Fatalf("phase %d: engine %d vector[%d] = %q, want %q", phase, i, s, v, want[s])
				}
			}
		}
	}
}

// TestICEngineByzantineSilence pins the engine's agreement semantics under
// a silent processor: absent intro and round traffic from one source must
// resolve that source's slot to the default value at every honest engine.
func TestICEngineByzantineSilence(t *testing.T) {
	n, f := 4, 1
	silent := 3
	engines := make([]*IC, n)
	for i := range engines {
		e, err := NewIC(i, n, f)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		e.Reset(Value{byte('a' + i)})
	}
	lists := make([][]any, n)
	for pulse := 0; pulse < TotalPulses(f); pulse++ {
		for i, e := range engines {
			if i == silent {
				continue
			}
			for from := range engines {
				if from == silent {
					continue
				}
				for _, payload := range lists[from] {
					e.Deliver(from, payload)
				}
			}
		}
		for i, e := range engines {
			out, _ := e.EndPulse(pulse)
			lists[i] = out
		}
	}
	for i, e := range engines {
		if i == silent {
			continue
		}
		if !e.Done() {
			t.Fatalf("engine %d undecided", i)
		}
		vec := e.VectorRef()
		if len(vec[silent]) != 0 {
			t.Fatalf("engine %d decided %q for the silent source, want default", i, vec[silent])
		}
		for s := 0; s < n; s++ {
			if s != silent && string(vec[s]) != string(rune('a'+s)) {
				t.Fatalf("engine %d vector[%d] = %q", i, s, vec[s])
			}
		}
	}
}
