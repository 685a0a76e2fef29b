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
	if _, err := NewEIG(0, 4, 1, "v"); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// runEIG builds an n-processor network each with its own initial value,
// marks byz processors with the given adversary, and runs to termination.
func runEIG(t *testing.T, n, f int, initial []Value, byz map[int]sim.Adversary) []Value {
	t.Helper()
	procs := make([]sim.Process, n)
	raw := make([]*Proc, n)
	for i := 0; i < n; i++ {
		p, err := NewProc(i, n, f, initial[i])
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = p
		procs[i] = p
	}
	nw, err := sim.NewNetwork(procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, adv := range byz {
		nw.SetByzantine(id, adv)
	}
	nw.Run(Rounds(f) + 2)
	out := make([]Value, n)
	for i, p := range raw {
		if !p.Decided() {
			t.Fatalf("proc %d did not decide", i)
		}
		v, err := p.Decision()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func assertHonestAgree(t *testing.T, decisions []Value, byz map[int]sim.Adversary) Value {
	t.Helper()
	var agreed Value
	first := true
	for i, v := range decisions {
		if _, bad := byz[i]; bad {
			continue
		}
		if first {
			agreed = v
			first = false
			continue
		}
		if v != agreed {
			t.Fatalf("agreement violated: proc %d decided %q, others %q", i, v, agreed)
		}
	}
	return agreed
}

func TestEIGAllHonestUnanimous(t *testing.T) {
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		initial := make([]Value, n)
		for i := range initial {
			initial[i] = "v"
		}
		decisions := runEIG(t, n, f, initial, nil)
		if got := assertHonestAgree(t, decisions, nil); got != "v" {
			t.Fatalf("n=%d: validity violated: decided %q, want v", n, got)
		}
	}
}

func TestEIGAllHonestMixedInputsAgree(t *testing.T) {
	initial := []Value{"a", "b", "a", "b"}
	decisions := runEIG(t, 4, 1, initial, nil)
	assertHonestAgree(t, decisions, nil)
}

func TestEIGToleratesSilentByzantine(t *testing.T) {
	initial := []Value{"v", "v", "v", "junk"}
	byz := map[int]sim.Adversary{3: sim.SilentAdversary()}
	decisions := runEIG(t, 4, 1, initial, byz)
	if got := assertHonestAgree(t, decisions, byz); got != "v" {
		t.Fatalf("validity with silent byz: decided %q, want v", got)
	}
}

func TestEIGToleratesEquivocation(t *testing.T) {
	// The classic attack: processor 3 tells half the network "x" and the
	// other half "y". n=4, f=1: honest must still agree.
	initial := []Value{"v", "v", "v", "x"}
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		pl, ok := payload.(eigPayload)
		if !ok {
			return payload
		}
		forged := eigPayload{Instance: pl.Instance, Round: pl.Round, Pairs: make([]Pair, len(pl.Pairs))}
		for i, pr := range pl.Pairs {
			v := Value("x")
			if to%2 == 0 {
				v = "y"
			}
			forged.Pairs[i] = Pair{Label: pr.Label, Val: v}
		}
		return forged
	})}
	decisions := runEIG(t, 4, 1, initial, byz)
	if got := assertHonestAgree(t, decisions, byz); got != "v" {
		t.Fatalf("equivocation broke validity: decided %q, want v", got)
	}
}

func TestEIGSevenProcessorsTwoByzantine(t *testing.T) {
	n, f := 7, 2
	initial := make([]Value, n)
	for i := range initial {
		initial[i] = "agreed"
	}
	byz := map[int]sim.Adversary{
		2: sim.EquivocateAdversary(func(to int, payload any) any {
			pl, ok := payload.(eigPayload)
			if !ok {
				return payload
			}
			forged := pl
			forged.Pairs = make([]Pair, len(pl.Pairs))
			for i, pr := range pl.Pairs {
				forged.Pairs[i] = Pair{Label: pr.Label, Val: Value(fmt.Sprintf("evil-%d", to))}
			}
			return forged
		}),
		5: sim.SilentAdversary(),
	}
	decisions := runEIG(t, n, f, initial, byz)
	if got := assertHonestAgree(t, decisions, byz); got != "agreed" {
		t.Fatalf("n=7 f=2: decided %q, want agreed", got)
	}
}

func TestQuickEIGAgreementRandomByzantine(t *testing.T) {
	// Property: for random honest inputs and a randomly-behaving Byzantine
	// processor, all honest processors agree.
	f := func(seed uint64, inputsRaw [4]uint8, byzID uint8) bool {
		n, fy := 4, 1
		initial := make([]Value, n)
		for i := range initial {
			initial[i] = Value(fmt.Sprintf("v%d", inputsRaw[i]%3))
		}
		bid := int(byzID) % n
		src := prng.New(seed)
		byz := map[int]sim.Adversary{bid: sim.EquivocateAdversary(func(to int, payload any) any {
			pl, ok := payload.(eigPayload)
			if !ok {
				return payload
			}
			forged := pl
			forged.Pairs = make([]Pair, len(pl.Pairs))
			for i, pr := range pl.Pairs {
				forged.Pairs[i] = Pair{Label: pr.Label, Val: Value(fmt.Sprintf("r%d", src.Uint64()%5))}
			}
			return forged
		})}

		procs := make([]sim.Process, n)
		raw := make([]*Proc, n)
		for i := 0; i < n; i++ {
			p, err := NewProc(i, n, fy, initial[i])
			if err != nil {
				return false
			}
			raw[i] = p
			procs[i] = p
		}
		nw, err := sim.NewNetwork(procs, nil)
		if err != nil {
			return false
		}
		nw.SetByzantine(bid, byz[bid])
		nw.Run(Rounds(fy) + 2)
		var agreed Value
		first := true
		for i, p := range raw {
			if i == bid {
				continue
			}
			if !p.Decided() {
				return false
			}
			v, _ := p.Decision()
			if first {
				agreed, first = v, false
			} else if v != agreed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInteractiveConsistency(t *testing.T) {
	n, f := 4, 1
	procs := make([]sim.Process, n)
	raw := make([]*ICProc, n)
	for i := 0; i < n; i++ {
		p, err := NewICProc(i, n, f, Value(fmt.Sprintf("private-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = p
		procs[i] = p
	}
	nw, err := sim.NewNetwork(procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(TotalPulses(f))
	want := []Value{"private-0", "private-1", "private-2", "private-3"}
	for i, p := range raw {
		if !p.Done() {
			t.Fatalf("ic proc %d not done after %d pulses", i, TotalPulses(f))
		}
		vec := p.Vector()
		for s := range want {
			if vec[s] != want[s] {
				t.Fatalf("proc %d vector[%d] = %q, want %q", i, s, vec[s], want[s])
			}
		}
	}
}

func TestInteractiveConsistencyWithEquivocatingSource(t *testing.T) {
	// Byzantine source 0 tells different private values to different
	// processors; honest must agree on SOME common value for slot 0 and
	// exact values for honest slots.
	n, f := 4, 1
	procs := make([]sim.Process, n)
	raw := make([]*ICProc, n)
	for i := 0; i < n; i++ {
		p, err := NewICProc(i, n, f, Value(fmt.Sprintf("private-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = p
		procs[i] = p
	}
	nw, err := sim.NewNetwork(procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetByzantine(0, sim.EquivocateAdversary(func(to int, payload any) any {
		if init, ok := payload.(icInit); ok {
			_ = init
			return icInit{Val: Value(fmt.Sprintf("lie-to-%d", to))}
		}
		return payload
	}))
	nw.Run(TotalPulses(f))
	var slot0 Value
	first := true
	for i := 1; i < n; i++ {
		if !raw[i].Done() {
			t.Fatalf("proc %d not done", i)
		}
		vec := raw[i].Vector()
		for s := 1; s < n; s++ {
			want := Value(fmt.Sprintf("private-%d", s))
			if vec[s] != want {
				t.Fatalf("honest slot %d at proc %d = %q, want %q", s, i, vec[s], want)
			}
		}
		if first {
			slot0, first = vec[0], false
		} else if vec[0] != slot0 {
			t.Fatalf("slot 0 disagreement: %q vs %q", vec[0], slot0)
		}
	}
}

func TestICCorruptionRecoversViaRestart(t *testing.T) {
	// Not full self-stabilization (that is ssba's job) — but a corrupted
	// ICProc must not panic and must be restartable.
	p, err := NewICProc(0, 4, 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(3)
	p.Corrupt(src.Uint64)
	for pulse := 0; pulse < 10; pulse++ {
		_ = p.Step(pulse, nil) // must not panic with arbitrary state
	}
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

func BenchmarkEIGRound(b *testing.B) {
	n, f := 7, 2
	for i := 0; i < b.N; i++ {
		initial := make([]Value, n)
		for j := range initial {
			initial[j] = "v"
		}
		procs := make([]sim.Process, n)
		for j := 0; j < n; j++ {
			p, err := NewProc(j, n, f, initial[j])
			if err != nil {
				b.Fatal(err)
			}
			procs[j] = p
		}
		nw, err := sim.NewNetwork(procs, nil)
		if err != nil {
			b.Fatal(err)
		}
		nw.Run(Rounds(f) + 2)
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
			msgs[i] = p.RoundMessages(round)
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

func TestProcCorruptRecoversViaRestart(t *testing.T) {
	// A corrupted single-instance EIG Proc must not panic on arbitrary
	// state and must keep stepping (the ssba layer handles true
	// self-stabilization).
	p, err := NewProc(0, 4, 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(7)
	p.Corrupt(src.Uint64)
	for pulse := 0; pulse < 10; pulse++ {
		_ = p.Step(pulse, nil)
	}
}
