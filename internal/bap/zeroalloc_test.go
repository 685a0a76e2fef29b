package bap

import (
	"fmt"
	"testing"

	"gameauthority/internal/auth"
)

// TestICEnginePhaseZeroAlloc is the hard per-pulse allocation gate for the
// distributed driver's agreement engine: a complete warm interactive-
// consistency phase — Reset, dissemination, every EIG round, decision —
// must not allocate at all, across all processors, at both shapes the
// ledger's distributed workload runs. Any heap traffic on this path
// multiplies by pulses × processors × plays, so the budget is exactly
// zero, not "small".
func TestICEnginePhaseZeroAlloc(t *testing.T) {
	for _, shape := range [][2]int{{4, 1}, {7, 2}} {
		n, f := shape[0], shape[1]
		t.Run(fmt.Sprintf("n%df%d", n, f), func(t *testing.T) {
			engines := newICs(t, n, f)
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = Value(fmt.Sprintf("value-%d", i))
			}
			lists := make([][]any, n)
			pulse := 0
			runPhase := func() {
				for i, e := range engines {
					e.Reset(vals[i])
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
			}
			runPhase() // warm: arenas are pre-sized, but the first phase proves it
			for i, e := range engines {
				if !e.Done() {
					t.Fatalf("engine %d not done after %d pulses", i, TotalPulses(f))
				}
				for s, v := range e.VectorRef() {
					if v != vals[s] {
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
		want := make([]Value, n)
		for i := range engines {
			want[i] = Value(rune('a'+phase)) + Value(rune('0'+i))
			engines[i].Reset(want[i])
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
				if v != want[s] {
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
		e.Reset(Value(rune('a' + i)))
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
		if vec[silent] != DefaultValue {
			t.Fatalf("engine %d decided %q for the silent source, want default", i, vec[silent])
		}
		for s := 0; s < n; s++ {
			if s != silent && vec[s] != Value(rune('a'+s)) {
				t.Fatalf("engine %d vector[%d] = %q", i, s, vec[s])
			}
		}
	}
}

// TestDolevStrongStructuralRejectZeroAlloc gates the pre-verification
// reject paths of the Dolev–Strong absorber: chains with the wrong length
// or the wrong leading signer must be dropped without touching the heap,
// so a Byzantine flood of malformed chains cannot pressure the collector.
// (Chains that reach tag verification pay the HMAC's allocations — that is
// crypto cost, not round state.)
func TestDolevStrongStructuralRejectZeroAlloc(t *testing.T) {
	n, f := 4, 1
	dealer := auth.NewDealer(n, 11)
	authn, err := dealer.Authenticator(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewDSProc(1, n, f, 0, authn, "")
	if err != nil {
		t.Fatal(err)
	}
	badLen := dsPayload{Val: "x", Chain: make([]dsChainLink, 3)} // wrong length for round 1
	badHead := dsPayload{Val: "y", Chain: []dsChainLink{{Signer: 2}}}
	p.pulseNo = 1
	if allocs := testing.AllocsPerRun(50, func() {
		p.absorb(badLen, 1)
		p.absorb(badHead, 1)
	}); allocs != 0 {
		t.Fatalf("structural reject allocates %v times, want 0", allocs)
	}
	if len(p.extracted) != 0 || len(p.relayQ) != 0 {
		t.Fatal("malformed chains were absorbed")
	}
}

// TestDolevStrongBodyBufferStable pins that the reused signing-body buffer
// produces the same bytes as the original fmt-based encoding.
func TestDolevStrongBodyBufferStable(t *testing.T) {
	got := string(dsMessageBody(nil, 12, "val|ue"))
	if got != "ds|12|val|ue" {
		t.Fatalf("dsMessageBody = %q", got)
	}
	buf := make([]byte, 0, 8)
	buf = dsMessageBody(buf, 3, "abc")
	if string(buf) != "ds|3|abc" {
		t.Fatalf("reused buffer body = %q", string(buf))
	}
}
