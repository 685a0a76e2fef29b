package bap

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gameauthority/internal/prng"
)

func TestNewEIGValidation(t *testing.T) {
	if _, err := NewEIG(0, 3, 1, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=3f: err = %v, want ErrConfig", err)
	}
	if _, err := NewEIG(9, 4, 1, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad id: err = %v, want ErrConfig", err)
	}
	if _, err := NewEIG(0, 65, 1, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=65: err = %v, want ErrConfig (a label is a 64-bit member mask)", err)
	}
	if _, err := NewEIG(0, 4, 1, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// forger rewrites one payload a Byzantine processor sends to `to`; a nil
// result drops it. Payloads point into the sender's arenas, so a forger
// that changes one must copy it first.
type forger func(to int, payload any) any

func silent(int, any) any { return nil }

// forgedGen numbers the pool views forgers build, far above any engine's
// own, so a receiver translates each forged view afresh.
var forgedGen uint64 = 1 << 40

// forgeView returns a view of a fresh pool holding vals, and each value's
// id in it.
func forgeView(vals ...string) (poolView, []uint32) {
	pool := newValuePool(len(vals) + 1)
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = pool.intern([]byte(v))
	}
	forgedGen++
	return pool.view(forgedGen), ids
}

// forgePairs is a forger that relays every EIG round message with each
// pair's value replaced by val(to), leaving the dissemination honest.
func forgePairs(val func(to int) string) forger {
	return func(to int, payload any) any {
		m, ok := payload.(*icRoundMsg)
		if !ok {
			return payload
		}
		vals := make([]string, len(m.Pairs))
		for i := range vals {
			vals[i] = val(to)
		}
		forged := *m
		var ids []uint32
		forged.Vals, ids = forgeView(vals...)
		forged.Pairs = make([]Pair, len(m.Pairs))
		for i, pr := range m.Pairs {
			forged.Pairs[i] = Pair{Node: pr.Node, Val: ids[i]}
		}
		return &forged
	}
}

// identity is the id map of processors that share one id space.
func identity(ids int) []uint32 {
	out := make([]uint32, ids)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// newICs builds the n engines of one (n, f) network.
func newICs(tb testing.TB, n, f int) []*IC {
	tb.Helper()
	engines := make([]*IC, n)
	for i := range engines {
		e, err := NewIC(i, n, f)
		if err != nil {
			tb.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// runIC runs one interactive-consistency phase over the engines, engine i
// proposing private[i], with every payload a processor in byz sends
// rewritten per destination by its forger. It returns each engine's
// decided vector, nil for the Byzantine ones.
func runIC(tb testing.TB, engines []*IC, private []string, byz map[int]forger) [][]string {
	tb.Helper()
	n, f := len(engines), engines[0].f
	for i, e := range engines {
		e.Reset(Value(private[i]))
	}
	lists := make([][]any, n)
	for pulse := 0; pulse < TotalPulses(f); pulse++ {
		for to, e := range engines {
			for from, list := range lists {
				for _, payload := range list {
					if forge, bad := byz[from]; bad {
						payload = forge(to, payload)
					}
					if payload != nil {
						e.Deliver(from, payload)
					}
				}
			}
		}
		for i, e := range engines {
			lists[i], _ = e.EndPulse(pulse)
		}
	}
	vecs := make([][]string, n)
	for i, e := range engines {
		if _, bad := byz[i]; bad {
			continue
		}
		if !e.Done() {
			tb.Fatalf("engine %d undecided after %d pulses", i, TotalPulses(f))
		}
		vecs[i] = vectorStrings(e)
	}
	return vecs
}

// vectorStrings copies an engine's agreed vector out of its pool.
func vectorStrings(e *IC) []string {
	out := make([]string, e.n)
	for s, v := range e.VectorRef() {
		out[s] = string(v)
	}
	return out
}

// checkIC asserts interactive consistency over the honest engines: every
// slot agreed (agreement), and every honest source's slot equal to its
// private value (validity). It returns the agreed vector.
func checkIC(t *testing.T, vecs [][]string, private []string, byz map[int]forger) []string {
	t.Helper()
	var agreed []string
	for i, vec := range vecs {
		if vec == nil {
			continue
		}
		if agreed == nil {
			agreed = vec
		}
		for s := range vec {
			if vec[s] != agreed[s] {
				t.Fatalf("agreement violated on slot %d: engine %d decided %q, others %q", s, i, vec[s], agreed[s])
			}
			if _, bad := byz[s]; !bad && vec[s] != private[s] {
				t.Fatalf("validity violated: engine %d decided %q for honest source %d, which proposed %q", i, vec[s], s, private[s])
			}
		}
	}
	return agreed
}

func TestEIGAllHonestUnanimous(t *testing.T) {
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		private := make([]string, n)
		for i := range private {
			private[i] = "v"
		}
		checkIC(t, runIC(t, newICs(t, n, f), private, nil), private, nil)
	}
}

func TestEIGAllHonestMixedInputsAgree(t *testing.T) {
	// Source 0 tells even processors "a" and odd ones "b", then relays
	// honestly: instance 0 runs on mixed honest inputs and must still
	// agree.
	private := []string{"a", "p1", "p2", "p3"}
	byz := map[int]forger{0: func(to int, payload any) any {
		if _, ok := payload.(*icIntro); ok {
			return &icIntro{Val: []byte([]string{"a", "b"}[to%2])}
		}
		return payload
	}}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestEIGToleratesSilentByzantine(t *testing.T) {
	private := []string{"v", "v", "v", "junk"}
	byz := map[int]forger{3: silent}
	if got := checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz); got[3] != "" {
		t.Fatalf("silent source's slot = %q, want the default", got[3])
	}
}

func TestEIGToleratesEquivocation(t *testing.T) {
	// The classic attack: processor 3 relays "x" to half the network and
	// "y" to the other half. n=4, f=1: honest must still agree.
	private := []string{"v", "v", "v", "x"}
	byz := map[int]forger{3: forgePairs(func(to int) string { return []string{"y", "x"}[to%2] })}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestEIGSevenProcessorsTwoByzantine(t *testing.T) {
	n, f := 7, 2
	private := make([]string, n)
	for i := range private {
		private[i] = "agreed"
	}
	byz := map[int]forger{
		2: forgePairs(func(to int) string { return fmt.Sprintf("evil-%d", to) }),
		5: silent,
	}
	checkIC(t, runIC(t, newICs(t, n, f), private, byz), private, byz)
}

func TestQuickEIGAgreementRandomByzantine(t *testing.T) {
	// Property: for random honest inputs and a Byzantine processor that
	// relays random values per destination, every honest engine agrees on
	// every slot and decides each honest source's own value.
	prop := func(seed uint64, inputsRaw [4]uint8, byzID uint8) bool {
		n, f := 4, 1
		private := make([]string, n)
		for i := range private {
			private[i] = fmt.Sprintf("v%d", inputsRaw[i]%3)
		}
		src := prng.New(seed)
		byz := map[int]forger{int(byzID) % n: forgePairs(func(int) string {
			return fmt.Sprintf("r%d", src.Uint64()%5)
		})}
		var agreed []string
		for i, vec := range runIC(t, newICs(t, n, f), private, byz) {
			if vec == nil {
				continue
			}
			if agreed == nil {
				agreed = vec
			}
			for s := range vec {
				if _, bad := byz[s]; vec[s] != agreed[s] || (!bad && vec[s] != private[s]) {
					t.Logf("engine %d slot %d: %q", i, s, vec[s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInteractiveConsistency(t *testing.T) {
	private := []string{"private-0", "private-1", "private-2", "private-3"}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, nil), private, nil)
}

func TestInteractiveConsistencyWithEquivocatingSource(t *testing.T) {
	// Byzantine source 0 tells every processor a different private value
	// and relays random garbage; honest engines must agree on SOME common
	// value for slot 0 and on the exact values of the honest slots.
	private := []string{"private-0", "private-1", "private-2", "private-3"}
	relay := forgePairs(func(to int) string { return fmt.Sprintf("relay-to-%d", to) })
	byz := map[int]forger{0: func(to int, payload any) any {
		if _, ok := payload.(*icIntro); ok {
			return &icIntro{Val: fmt.Appendf(nil, "lie-to-%d", to)}
		}
		return relay(to, payload)
	}}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestICCorruptionRecoversViaRestart(t *testing.T) {
	// A transient fault leaves the engines mid-phase on garbage: stale
	// rounds, instance ranges off the pairs or out of order, node indexes
	// off the tree or on the wrong level, value ids off the sender's view,
	// views whose spans run past their bytes, pulses out of step. Reset at the next phase start must
	// discard all of it, which is what the distributed driver's clock wrap
	// relies on.
	n, f := 4, 1
	engines := newICs(t, n, f)
	src := prng.New(3)
	junk, _ := forgeView("junk", "more junk")
	broken := junk
	broken.ends = []uint32{0, 4, 99}
	for i, e := range engines {
		e.Reset(fmt.Appendf(nil, "stale-%d", i))
		stop := int(src.Uint64() % uint64(TotalPulses(f)))
		for pulse := 0; pulse < stop; pulse++ {
			for from := 0; from < n; from++ {
				view := junk
				if src.Uint64()%2 == 0 {
					view = broken
				}
				starts := make([]int32, n+1+int(src.Uint64()%2))
				for s := range starts {
					starts[s] = int32(src.Uint64()%4) - 1
				}
				e.Deliver(from, &icIntro{Val: []byte("junk")})
				e.Deliver(from, &icRoundMsg{
					Round:  int(src.Uint64() % 3),
					Starts: starts,
					Pairs:  []Pair{{Node: int32(src.Uint64()%24) - 4, Val: uint32(src.Uint64() % 4)}, {Node: 1, Val: 1}},
					Vals:   view,
				})
			}
			e.EndPulse(pulse)
		}
	}
	private := []string{"w", "x", "y", "z"}
	checkIC(t, runIC(t, engines, private, nil), private, nil)
}

func TestEIGTreeSizeGrowsPerRound(t *testing.T) {
	n, f := 4, 1
	e, err := NewEIG(0, n, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Root only after construction; the flat layout for (4,1) has
	// 1 + 4 + 12 = 17 slots in total.
	if got := e.TreeSize(); got != 1 {
		t.Fatalf("TreeSize after init = %d, want 1 (root)", got)
	}
	sizes := []int{e.TreeSize()}
	procs := make([]*EIG, n)
	for i := range procs {
		if procs[i], err = NewEIG(i, n, f, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < Rounds(f); round++ {
		msgs := make([][]Pair, n)
		for i, p := range procs {
			msgs[i] = p.AppendRoundMessages(round, nil)
		}
		for _, p := range procs {
			for from := range procs {
				p.Absorb(round, from, msgs[from], identity(n+1))
			}
			p.EndRound()
		}
		sizes = append(sizes, procs[0].TreeSize())
	}
	// All-honest full mesh fills every level: 1, then +n, then +n(n−1).
	want := []int{1, 1 + n, 1 + n + n*(n-1)}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("tree sizes = %v, want %v", sizes, want)
		}
	}
}

// TestCostMatchesLayout holds the closed form to the layout it prices,
// on shapes small enough to build, and pins the anchors the create door's
// budget was chosen between.
func TestCostMatchesLayout(t *testing.T) {
	for _, s := range [][2]int{{4, 1}, {5, 0}, {7, 2}, {10, 2}, {10, 3}} {
		n, f := s[0], s[1]
		want := float64(buildLayout(n, f).nodes() * n * n)
		if got := Cost(n, f); got != want {
			t.Errorf("Cost(%d,%d) = %.0f, layout says %.0f", n, f, got, want)
		}
	}
	for _, tc := range []struct {
		n, f int
		want float64
	}{{16, 1, 65792}, {13, 2, 318734}, {13, 4, 29319134}} {
		if got := Cost(tc.n, tc.f); got != tc.want {
			t.Errorf("Cost(%d,%d) = %.0f, want %.0f", tc.n, tc.f, got, tc.want)
		}
	}
	// Absurd shapes price as huge, promptly, without wrapping around.
	for _, s := range [][2]int{{64, 21}, {1 << 40, 1}, {1 << 62, 1 << 62}} {
		if got := Cost(s[0], s[1]); !(got > Cost(13, 4)) {
			t.Errorf("Cost(%d,%d) = %g, want it beyond any budget", s[0], s[1], got)
		}
	}
}

// TestICViewsOutliveResets pins the lifetime rule behind the carrier's
// replay slack: the bytes a sent message views stay as they were through
// the sender's next icSlabRounds−1 phases, however much those phases
// intern, so a message replayed late never reads rewritten bytes.
func TestICViewsOutliveResets(t *testing.T) {
	n, f := 4, 1
	engines := newICs(t, n, f)
	for i, e := range engines {
		e.Reset(fmt.Appendf(nil, "phase-0-%d", i))
	}
	lists := make([][]any, n)
	var sent []any
	for pulse := 0; len(sent) < 2; pulse++ {
		for _, e := range engines {
			for from, list := range lists {
				for _, payload := range list {
					e.Deliver(from, payload)
				}
			}
		}
		for i, e := range engines {
			lists[i], _ = e.EndPulse(pulse)
		}
		sent = append(sent, lists[0]...) // engine 0's intro, then its round-0 message
	}
	intro := sent[0].(*icIntro).Val
	view := sent[1].(*icRoundMsg).Vals
	wantIntro := string(intro)
	var want []string
	for id := range view.ends {
		b, _ := view.span(id)
		want = append(want, string(b))
	}
	for phase := 1; phase < icSlabRounds; phase++ {
		private := make([]string, n)
		for i := range private {
			private[i] = fmt.Sprintf("phase-%d-%d-%s", phase, i, strings.Repeat("x", 64*phase))
		}
		checkIC(t, runIC(t, engines, private, nil), private, nil)
		if string(intro) != wantIntro {
			t.Fatalf("after %d more phases the intro reads %q, was %q", phase, intro, wantIntro)
		}
		for id := range view.ends {
			if b, _ := view.span(id); string(b) != want[id] {
				t.Fatalf("after %d more phases id %d of the round view reads %q, was %q", phase, id, b, want[id])
			}
		}
	}
}

// TestICTranslatesPerSenderPool pins that a receiver maps a sender's ids
// through the pool the message views, not through an earlier pool of the
// same sender: under clock chaos a sender can restart a phase, and its
// messages then view a fresh pool whose ids name other bytes.
func TestICTranslatesPerSenderPool(t *testing.T) {
	n, f := 4, 1
	e := newICs(t, n, f)[1]
	e.Reset(Value("mine"))
	e.EndPulse(0) // dissemination
	e.EndPulse(1) // the instances start; round 0's messages are next
	older, ids := forgeView("x")
	newer, _ := forgeView("y") // id 1 again, other bytes, another gen
	root := []Pair{{Node: 0, Val: ids[0]}}
	only := func(s int) []int32 { // Starts giving instance s the one pair
		starts := make([]int32, n+1)
		for i := s + 1; i <= n; i++ {
			starts[i] = 1
		}
		return starts
	}
	e.Deliver(2, &icRoundMsg{Round: 0, Starts: only(0), Pairs: root, Vals: older})
	e.Deliver(2, &icRoundMsg{Round: 0, Starts: only(1), Pairs: root, Vals: newer})
	const rootFrom2 = 3 // node "2": level 1 starts at 1, processor 2's rank is 2
	for s, want := range []string{"x", "y"} {
		inst := e.insts[s]
		if !inst.set[rootFrom2] {
			t.Fatalf("instance %d stored nothing for node 2", s)
		}
		if got := string(e.pool.value(inst.vals[rootFrom2])); got != want {
			t.Fatalf("instance %d stored %q for node 2, want %q", s, got, want)
		}
	}
}
