package bap

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gameauthority/internal/auth"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

func TestNewEIGValidation(t *testing.T) {
	if _, err := NewEIG(0, 3, 1, "v"); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=3f: err = %v, want ErrConfig", err)
	}
	if _, err := NewEIG(9, 4, 1, "v"); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad id: err = %v, want ErrConfig", err)
	}
	if _, err := NewEIG(0, 65, 1, "v"); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=65: err = %v, want ErrConfig (a label is a 64-bit member mask)", err)
	}
	if _, err := NewEIG(0, 4, 1, "v"); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// forger rewrites one payload a Byzantine processor sends to `to`; a nil
// result drops it. Payloads point into the sender's arenas, so a forger
// that changes one must copy it first.
type forger func(to int, payload any) any

func silent(int, any) any { return nil }

// forgePairs is a forger that relays every EIG round message with each
// pair's value replaced by val(to), leaving the dissemination honest.
func forgePairs(val func(to int) Value) forger {
	return func(to int, payload any) any {
		m, ok := payload.(*icRoundMsg)
		if !ok {
			return payload
		}
		forged := *m
		forged.Pairs = make([]Pair, len(m.Pairs))
		for i, pr := range m.Pairs {
			forged.Pairs[i] = Pair{Node: pr.Node, Val: val(to)}
		}
		return &forged
	}
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
func runIC(tb testing.TB, engines []*IC, private []Value, byz map[int]forger) [][]Value {
	tb.Helper()
	n, f := len(engines), engines[0].f
	for i, e := range engines {
		e.Reset(private[i])
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
	vecs := make([][]Value, n)
	for i, e := range engines {
		if _, bad := byz[i]; bad {
			continue
		}
		if !e.Done() {
			tb.Fatalf("engine %d undecided after %d pulses", i, TotalPulses(f))
		}
		vecs[i] = append([]Value(nil), e.VectorRef()...)
	}
	return vecs
}

// checkIC asserts interactive consistency over the honest engines: every
// slot agreed (agreement), and every honest source's slot equal to its
// private value (validity). It returns the agreed vector.
func checkIC(t *testing.T, vecs [][]Value, private []Value, byz map[int]forger) []Value {
	t.Helper()
	var agreed []Value
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
		private := make([]Value, n)
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
	private := []Value{"a", "p1", "p2", "p3"}
	byz := map[int]forger{0: func(to int, payload any) any {
		if _, ok := payload.(*icIntro); ok {
			return &icIntro{Val: []Value{"a", "b"}[to%2]}
		}
		return payload
	}}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestEIGToleratesSilentByzantine(t *testing.T) {
	private := []Value{"v", "v", "v", "junk"}
	byz := map[int]forger{3: silent}
	if got := checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz); got[3] != DefaultValue {
		t.Fatalf("silent source's slot = %q, want the default", got[3])
	}
}

func TestEIGToleratesEquivocation(t *testing.T) {
	// The classic attack: processor 3 relays "x" to half the network and
	// "y" to the other half. n=4, f=1: honest must still agree.
	private := []Value{"v", "v", "v", "x"}
	byz := map[int]forger{3: forgePairs(func(to int) Value { return []Value{"y", "x"}[to%2] })}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestEIGSevenProcessorsTwoByzantine(t *testing.T) {
	n, f := 7, 2
	private := make([]Value, n)
	for i := range private {
		private[i] = "agreed"
	}
	byz := map[int]forger{
		2: forgePairs(func(to int) Value { return Value(fmt.Sprintf("evil-%d", to)) }),
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
		private := make([]Value, n)
		for i := range private {
			private[i] = Value(fmt.Sprintf("v%d", inputsRaw[i]%3))
		}
		src := prng.New(seed)
		byz := map[int]forger{int(byzID) % n: forgePairs(func(int) Value {
			return Value(fmt.Sprintf("r%d", src.Uint64()%5))
		})}
		var agreed []Value
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
	private := []Value{"private-0", "private-1", "private-2", "private-3"}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, nil), private, nil)
}

func TestInteractiveConsistencyWithEquivocatingSource(t *testing.T) {
	// Byzantine source 0 tells every processor a different private value
	// and relays random garbage; honest engines must agree on SOME common
	// value for slot 0 and on the exact values of the honest slots.
	private := []Value{"private-0", "private-1", "private-2", "private-3"}
	relay := forgePairs(func(to int) Value { return Value(fmt.Sprintf("relay-to-%d", to)) })
	byz := map[int]forger{0: func(to int, payload any) any {
		if _, ok := payload.(*icIntro); ok {
			return &icIntro{Val: Value(fmt.Sprintf("lie-to-%d", to))}
		}
		return relay(to, payload)
	}}
	checkIC(t, runIC(t, newICs(t, 4, 1), private, byz), private, byz)
}

func TestICCorruptionRecoversViaRestart(t *testing.T) {
	// A transient fault leaves the engines mid-phase on garbage: stale
	// rounds, foreign instances, node indexes off the tree or on the wrong
	// level, pulses out of step. Reset at the next phase start must
	// discard all of it, which is what the distributed driver's clock wrap
	// relies on.
	n, f := 4, 1
	engines := newICs(t, n, f)
	src := prng.New(3)
	for i, e := range engines {
		e.Reset(Value(fmt.Sprintf("stale-%d", i)))
		stop := int(src.Uint64() % uint64(TotalPulses(f)))
		for pulse := 0; pulse < stop; pulse++ {
			for from := 0; from < n; from++ {
				e.Deliver(from, &icIntro{Val: "junk"})
				e.Deliver(from, &icRoundMsg{
					Instance: int(src.Uint64()%uint64(n+2)) - 1,
					Round:    int(src.Uint64() % 3),
					Pairs:    []Pair{{Node: int32(src.Uint64()%24) - 4, Val: "junk"}},
				})
			}
			e.EndPulse(pulse)
		}
	}
	private := []Value{"w", "x", "y", "z"}
	checkIC(t, runIC(t, engines, private, nil), private, nil)
}

func TestDolevStrongHonestSender(t *testing.T) {
	n, f := 4, 1
	d := newDSNet(t, n, f, 0, "payload", nil)
	d.nw.Run(DSTotalPulses(f))
	for i, p := range d.procs {
		v, err := p.Decision()
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
		if v != "payload" {
			t.Fatalf("proc %d decided %q, want payload", i, v)
		}
	}
}

func TestDolevStrongEquivocatingSenderYieldsDefault(t *testing.T) {
	// The sender signs two different values and partitions the audience.
	// All honest receivers must converge on the same decision (default,
	// since both values carry valid chains and get cross-relayed).
	n, f := 4, 1
	var d *dsNet
	d = newDSNet(t, n, f, 0, "x", func(dealerSeed uint64) sim.Adversary {
		return sim.AdversaryFunc(func(pulse, id int, out []sim.Message) []sim.Message {
			if pulse != 0 {
				return out
			}
			// Re-sign per destination with a different value.
			forged := make([]sim.Message, 0, len(out))
			for _, m := range out {
				v := Value("x")
				if m.To%2 == 1 {
					v = "y"
				}
				body := dsMessageBody(nil, 0, v)
				chain := []dsChainLink{{Signer: 0, Tags: d.auths[0].Sign(body)}}
				m.Payload = dsPayload{Val: v, Chain: chain}
				forged = append(forged, m)
			}
			return forged
		})
	})
	d.nw.Run(DSTotalPulses(f))
	var agreed Value
	first := true
	for i := 1; i < n; i++ {
		v, err := d.procs[i].Decision()
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
		if first {
			agreed, first = v, false
		} else if v != agreed {
			t.Fatalf("honest disagreement: proc %d %q vs %q", i, v, agreed)
		}
	}
	if agreed != DefaultValue {
		t.Fatalf("equivocation should force default, got %q", agreed)
	}
}

func TestDolevStrongForgedChainRejected(t *testing.T) {
	// A Byzantine relay cannot inject a value the sender never signed.
	n, f := 4, 1
	d := newDSNet(t, n, f, 0, "honest", nil)
	d.nw.SetByzantine(2, sim.AdversaryFunc(func(pulse, id int, out []sim.Message) []sim.Message {
		if pulse != 1 {
			return out
		}
		// Forge: claim the sender signed "evil" (but sign with own key).
		body := dsMessageBody(nil, 0, "evil")
		chain := []dsChainLink{
			{Signer: 0, Tags: d.auths[2].Sign(body)}, // forged: not 0's key
			{Signer: 2, Tags: d.auths[2].Sign(body)},
		}
		forged := make([]sim.Message, 0, n)
		for to := 0; to < n; to++ {
			forged = append(forged, sim.Message{To: to, Payload: dsPayload{Val: "evil", Chain: chain}})
		}
		return append(out, forged...)
	}))
	d.nw.Run(DSTotalPulses(f))
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		v, err := d.procs[i].Decision()
		if err != nil {
			t.Fatal(err)
		}
		if v != "honest" {
			t.Fatalf("proc %d accepted forged value: %q", i, v)
		}
	}
}

type dsNet struct {
	nw    *sim.Network
	procs []*DSProc
	auths []*auth.Authenticator
}

// newDSNet builds an n-processor Dolev–Strong broadcast network with the
// given designated sender. advFor, if non-nil, is installed as the sender's
// adversary (it receives the dealer seed so it can sign with real keys).
func newDSNet(t *testing.T, n, f, sender int, initial Value, advFor func(dealerSeed uint64) sim.Adversary) *dsNet {
	t.Helper()
	const dealerSeed = 1234
	dealer := auth.NewDealer(n, dealerSeed)
	d := &dsNet{procs: make([]*DSProc, n), auths: make([]*auth.Authenticator, n)}
	procs := make([]sim.Process, n)
	for i := 0; i < n; i++ {
		a, err := dealer.Authenticator(i)
		if err != nil {
			t.Fatal(err)
		}
		d.auths[i] = a
		v := DefaultValue
		if i == sender {
			v = initial
		}
		p, err := NewDSProc(i, n, f, sender, a, v)
		if err != nil {
			t.Fatal(err)
		}
		d.procs[i] = p
		procs[i] = p
	}
	nw, err := sim.NewNetwork(procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.nw = nw
	if advFor != nil {
		nw.SetByzantine(sender, advFor(dealerSeed))
	}
	return d
}

func TestNewDSProcValidation(t *testing.T) {
	if _, err := NewDSProc(0, 1, 0, 0, nil, "v"); !errors.Is(err, ErrConfig) {
		t.Fatalf("tiny n: %v", err)
	}
}

func TestEIGTreeSizeGrowsPerRound(t *testing.T) {
	n, f := 4, 1
	e, err := NewEIG(0, n, f, "v")
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
		if procs[i], err = NewEIG(i, n, f, Value(rune('a'+i))); err != nil {
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
				p.Absorb(round, from, msgs[from])
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
