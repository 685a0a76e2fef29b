package sim

import (
	"errors"
	"runtime"
	"testing"

	"gameauthority/internal/prng"
)

// echoProc broadcasts its current counter every pulse and sums everything
// it hears. Deterministic, Corruptible — a minimal protocol for engine
// tests.
type echoProc struct {
	id      int
	counter int
	heard   []int // sum of payloads heard per pulse
}

func (p *echoProc) ID() int { return p.id }

func (p *echoProc) Step(pulse int, inbox []Message) []Message {
	sum := 0
	for _, m := range inbox {
		sum += m.Payload.(int)
	}
	p.heard = append(p.heard, sum)
	p.counter++
	out := make([]Message, 0, 4)
	for to := 0; to < 4; to++ {
		out = append(out, Message{To: to, Payload: p.counter})
	}
	return out
}

func (p *echoProc) Corrupt(entropy func() uint64) {
	p.counter = int(entropy() % 1000)
	p.heard = nil
}

func newEchoNet(t *testing.T, topo *Graph) (*Network, []*echoProc) {
	t.Helper()
	procs := make([]Process, 4)
	raw := make([]*echoProc, 4)
	for i := range procs {
		raw[i] = &echoProc{id: i}
		procs[i] = raw[i]
	}
	nw, err := NewNetwork(procs, topo)
	if err != nil {
		t.Fatal(err)
	}
	return nw, raw
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := NewNetwork([]Process{nil}, nil); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("nil proc: err = %v", err)
	}
	// Wrong ID.
	if _, err := NewNetwork([]Process{&echoProc{id: 5}}, nil); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("wrong id: err = %v", err)
	}
	// Topology size mismatch.
	if _, err := NewNetwork([]Process{&echoProc{id: 0}}, FullMesh(3)); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("topo mismatch: err = %v", err)
	}
}

func TestLockstepDelaysDeliveryOnePulse(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	nw.StepLockstep()
	// Pulse 0: inbox empty everywhere.
	for i, p := range raw {
		if p.heard[0] != 0 {
			t.Fatalf("proc %d heard %d at pulse 0, want 0", i, p.heard[0])
		}
	}
	nw.StepLockstep()
	// Pulse 1: everyone hears 4 × counter=1 (incl. self-delivery).
	for i, p := range raw {
		if p.heard[1] != 4 {
			t.Fatalf("proc %d heard %d at pulse 1, want 4", i, p.heard[1])
		}
	}
	if nw.Pulse() != 2 {
		t.Fatalf("pulse = %d, want 2", nw.Pulse())
	}
}

func TestTopologyFiltersMessages(t *testing.T) {
	// Line topology: processor 0 and 3 are not adjacent; messages between
	// them are dropped.
	nw, raw := newEchoNet(t, Line(4))
	nw.Run(2)
	// At pulse 1, proc 0 hears: itself (1) + neighbour 1 (1) = 2.
	if raw[0].heard[1] != 2 {
		t.Fatalf("proc 0 heard %d, want 2 (self + one neighbour)", raw[0].heard[1])
	}
	// Middle proc 1 hears: self + procs 0 and 2 = 3.
	if raw[1].heard[1] != 3 {
		t.Fatalf("proc 1 heard %d, want 3", raw[1].heard[1])
	}
	if nw.Stats.MessagesDropped == 0 {
		t.Fatal("expected drops on non-adjacent sends")
	}
}

func TestByzantineInterception(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	// Processor 3 lies: doubles its payload to even destinations, silent
	// to odd ones (equivocation).
	nw.SetByzantine(3, EquivocateAdversary(func(to int, payload any) any {
		if to%2 == 0 {
			return payload.(int) * 100
		}
		return payload
	}))
	nw.Run(2)
	// Pulse 1: even procs hear 3 honest (3) + 100; odd hear 4.
	if raw[0].heard[1] != 3+100 {
		t.Fatalf("proc 0 heard %d, want 103", raw[0].heard[1])
	}
	if raw[1].heard[1] != 4 {
		t.Fatalf("proc 1 heard %d, want 4", raw[1].heard[1])
	}
	ids := nw.ByzantineIDs()
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("ByzantineIDs = %v", ids)
	}
	if h := nw.HonestIDs(); len(h) != 3 {
		t.Fatalf("HonestIDs = %v", h)
	}
	nw.SetByzantine(3, nil)
	if len(nw.ByzantineIDs()) != 0 {
		t.Fatal("SetByzantine(nil) did not clear")
	}
}

func TestSilentAdversary(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	nw.SetByzantine(2, SilentAdversary())
	nw.Run(2)
	// Everyone hears only 3 counters (silent proc 2 dropped).
	for i, p := range raw {
		if p.heard[1] != 3 {
			t.Fatalf("proc %d heard %d, want 3", i, p.heard[1])
		}
	}
}

func TestCorruptScramblesStateAndWipesTransit(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	nw.Run(3)
	src := prng.New(7)
	nw.Corrupt(src.Uint64)
	for i, p := range raw {
		if len(p.heard) != 0 {
			t.Fatalf("proc %d heard not reset", i)
		}
	}
	// After corruption, pulse 3's inboxes must be empty (no in-transit).
	nw.StepLockstep()
	for i, p := range raw {
		if p.heard[0] != 0 {
			t.Fatalf("proc %d heard %d right after corruption, want 0", i, p.heard[0])
		}
	}
}

func TestConcurrentMatchesLockstep(t *testing.T) {
	mk := func() (*Network, []*echoProc) {
		procs := make([]Process, 4)
		raw := make([]*echoProc, 4)
		for i := range procs {
			raw[i] = &echoProc{id: i}
			procs[i] = raw[i]
		}
		nw, err := NewNetwork(procs, Ring(4))
		if err != nil {
			t.Fatal(err)
		}
		return nw, raw
	}
	a, rawA := mk()
	b, rawB := mk()
	a.Run(10)
	b.RunConcurrent(10)
	for i := range rawA {
		if len(rawA[i].heard) != len(rawB[i].heard) {
			t.Fatalf("proc %d: history lengths differ", i)
		}
		for p := range rawA[i].heard {
			if rawA[i].heard[p] != rawB[i].heard[p] {
				t.Fatalf("proc %d pulse %d: lockstep %d != concurrent %d",
					i, p, rawA[i].heard[p], rawB[i].heard[p])
			}
		}
	}
}

func TestBroadcastHelper(t *testing.T) {
	topo := Line(3)
	out := Broadcast(topo, 1, "x")
	// Proc 1 on a line broadcasts to 0, itself, and 2.
	if len(out) != 3 {
		t.Fatalf("broadcast fan-out = %d, want 3", len(out))
	}
	out = Broadcast(topo, 0, "x")
	if len(out) != 2 { // self + neighbour 1
		t.Fatalf("endpoint fan-out = %d, want 2", len(out))
	}
}

func TestStatsCount(t *testing.T) {
	nw, _ := newEchoNet(t, nil)
	nw.Run(2)
	// 4 procs × 4 destinations × 2 pulses, all delivered on full mesh.
	if nw.Stats.MessagesSent != 32 {
		t.Fatalf("MessagesSent = %d, want 32", nw.Stats.MessagesSent)
	}
	if nw.Stats.Pulses != 2 {
		t.Fatalf("Pulses = %d, want 2", nw.Stats.Pulses)
	}
}

func TestDropAdversary(t *testing.T) {
	adv := DropAdversary(3, 1.0) // drop everything
	out := adv.Intercept(0, 0, []Message{{To: 1, Payload: 1}, {To: 2, Payload: 2}})
	if len(out) != 0 {
		t.Fatalf("p=1.0 kept %d messages", len(out))
	}
	adv = DropAdversary(3, 0.0)
	out = adv.Intercept(0, 0, []Message{{To: 1, Payload: 1}})
	if len(out) != 1 {
		t.Fatalf("p=0.0 dropped messages")
	}
}

func TestReplayAdversary(t *testing.T) {
	adv := ReplayAdversary()
	first := adv.Intercept(0, 0, []Message{{To: 1, Payload: "a"}})
	if len(first) != 0 {
		t.Fatalf("first pulse should replay nothing, got %d", len(first))
	}
	second := adv.Intercept(1, 0, []Message{{To: 1, Payload: "b"}})
	if len(second) != 1 || second[0].Payload.(string) != "a" {
		t.Fatalf("second pulse should replay 'a', got %v", second)
	}
}

func TestCorruptPayloadAdversary(t *testing.T) {
	adv := CorruptPayloadAdversary(1, 1.0, func(to int, p any) any { return -1 })
	out := adv.Intercept(0, 0, []Message{{To: 1, Payload: 5}})
	if out[0].Payload.(int) != -1 {
		t.Fatal("payload not rewritten at p=1.0")
	}
}

// assertEnginesAgree builds two identical echo networks, drives one with
// StepLockstep and one with StepConcurrent on a pool of min(workers, n)
// goroutines, and asserts identical executions (state histories and
// traffic stats). The pool takes its width from GOMAXPROCS, so that is
// what the test sets.
func assertEnginesAgree(t *testing.T, topo func() *Graph, byz func(nw *Network), pulses int, workers int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	mk := func() (*Network, []*echoProc) {
		procs := make([]Process, 4)
		raw := make([]*echoProc, 4)
		for i := range procs {
			raw[i] = &echoProc{id: i}
			procs[i] = raw[i]
		}
		nw, err := NewNetwork(procs, topo())
		if err != nil {
			t.Fatal(err)
		}
		if byz != nil {
			byz(nw)
		}
		return nw, raw
	}
	a, rawA := mk()
	b, rawB := mk()
	a.Run(pulses) // lockstep reference
	defer b.Close()
	b.RunConcurrent(pulses)
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: lockstep %+v, pool(%d) %+v", a.Stats, workers, b.Stats)
	}
	for i := range rawA {
		if len(rawA[i].heard) != len(rawB[i].heard) {
			t.Fatalf("proc %d: history lengths differ", i)
		}
		for p := range rawA[i].heard {
			if rawA[i].heard[p] != rawB[i].heard[p] {
				t.Fatalf("proc %d pulse %d: lockstep %d != pool(%d) %d",
					i, p, rawA[i].heard[p], workers, rawB[i].heard[p])
			}
		}
	}
}

// TestWorkerPoolMatchesLockstep is the lockstep-equivalence property test
// over the worker-pool engine: every topology × adversary × pool-width
// combination must replay the lockstep execution exactly.
func TestWorkerPoolMatchesLockstep(t *testing.T) {
	topos := map[string]func() *Graph{
		"mesh": func() *Graph { return FullMesh(4) },
		"ring": func() *Graph { return Ring(4) },
		"line": func() *Graph { return Line(4) },
	}
	advs := map[string]func(nw *Network){
		"honest": nil,
		"equivocate": func(nw *Network) {
			nw.SetByzantine(3, EquivocateAdversary(func(to int, payload any) any {
				if to%2 == 0 {
					return payload.(int) * 100
				}
				return payload
			}))
		},
		"silent": func(nw *Network) { nw.SetByzantine(2, SilentAdversary()) },
	}
	for tn, topo := range topos {
		for an, adv := range advs {
			for _, workers := range []int{2, 3, 8} {
				t.Run(tn+"/"+an, func(t *testing.T) {
					assertEnginesAgree(t, topo, adv, 25, workers)
				})
			}
		}
	}
}

func TestStepDispatchAndClose(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	nw.StepConcurrent()
	nw.Close()
	nw.StepConcurrent() // pool recreated on demand
	nw.Close()
	nw.Close()        // idempotent
	nw.StepLockstep() // the engines interleave on one network
	if nw.Pulse() != 3 {
		t.Fatalf("pulse = %d, want 3", nw.Pulse())
	}
	for i, p := range raw {
		if len(p.heard) != 3 {
			t.Fatalf("proc %d stepped %d times, want 3", i, len(p.heard))
		}
	}
}

func TestRecycledBuffersSurviveCorrupt(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	nw.Run(5)
	src := prng.New(11)
	nw.Corrupt(src.Uint64)
	nw.Run(2)
	// Pulse right after corruption: empty inboxes (in-transit wiped).
	for i, p := range raw {
		if p.heard[0] != 0 {
			t.Fatalf("proc %d heard %d right after corruption, want 0", i, p.heard[0])
		}
	}
	// Next pulse: full mesh of 4 counters again.
	for i, p := range raw {
		if p.heard[1] == 0 {
			t.Fatalf("proc %d heard nothing one pulse after corruption", i)
		}
	}
}

// TestSteadyStatePulseAllocations pins the engine-level allocation
// behaviour the message-arena work bought: a steady-state echo pulse
// allocates only the processes' own outbox/heard appends, not fresh
// network buffers. The bound is loose (amortized slice growth) but fails
// loudly if per-pulse make() calls return to the engine.
func TestSteadyStatePulseAllocations(t *testing.T) {
	nw, _ := newEchoNet(t, nil)
	nw.Run(50) // warm buffers and process state
	allocs := testing.AllocsPerRun(200, func() { nw.StepLockstep() })
	// echoProc itself appends to heard and rebuilds its outbox each pulse
	// (4 procs × ~2 allocs amortized); the engine must add ~nothing.
	if allocs > 12 {
		t.Fatalf("steady-state pulse allocates %v times; engine buffers are not being recycled", allocs)
	}
}

func TestProcessAccessor(t *testing.T) {
	nw, raw := newEchoNet(t, nil)
	for i, want := range raw {
		if got := nw.Process(i); got != Process(want) {
			t.Fatalf("Process(%d) = %v, want %v", i, got, want)
		}
	}
}
