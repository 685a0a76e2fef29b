package game

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRRAValidation(t *testing.T) {
	if _, err := NewRRA(0, 2); !errors.Is(err, ErrRRAConfig) {
		t.Fatalf("n=0: err = %v, want ErrRRAConfig", err)
	}
	if _, err := NewRRA(3, 1); !errors.Is(err, ErrRRAConfig) {
		t.Fatalf("b=1: err = %v, want ErrRRAConfig", err)
	}
	r, err := NewRRA(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 3 || r.B() != 4 || r.Rounds() != 0 {
		t.Fatalf("fresh RRA state wrong: n=%d b=%d k=%d", r.N(), r.B(), r.Rounds())
	}
}

func TestOptMaxLoad(t *testing.T) {
	cases := []struct {
		n, b, k int
		want    int64
	}{
		{4, 2, 0, 0},
		{4, 2, 1, 2}, // 4 demands on 2 bins → 2 each
		{5, 2, 1, 3}, // ⌈5/2⌉
		{3, 4, 1, 1}, // more bins than demands
		{8, 4, 10, 20},
		{7, 3, 5, 12}, // ⌈35/3⌉
	}
	for _, tc := range cases {
		if got := OptMaxLoad(tc.n, tc.b, tc.k); got != tc.want {
			t.Errorf("OptMaxLoad(%d,%d,%d) = %d, want %d", tc.n, tc.b, tc.k, got, tc.want)
		}
	}
}

func TestEquilibriumStrategyZeroLoads(t *testing.T) {
	r, _ := NewRRA(4, 3)
	m := r.EquilibriumStrategy()
	// With equal loads the symmetric equilibrium is uniform.
	for a := 0; a < 3; a++ {
		if math.Abs(m[a]-1.0/3) > 1e-9 {
			t.Fatalf("zero-load equilibrium = %v, want uniform", m)
		}
	}
}

func TestEquilibriumStrategyWaterFilling(t *testing.T) {
	r, _ := NewRRA(3, 3)
	// Force uneven loads: bin loads 0, 0, 10 — bin 2 should be off-support.
	r.loads = []int64{0, 0, 10}
	m := r.EquilibriumStrategy()
	if m[2] != 0 {
		t.Fatalf("overloaded bin still in support: %v", m)
	}
	if math.Abs(m[0]-0.5) > 1e-9 || math.Abs(m[1]-0.5) > 1e-9 {
		t.Fatalf("equilibrium = %v, want (1/2, 1/2, 0)", m)
	}
	// Indifference check: expected completion equal on support, and the
	// expected cost of the supported bins must not exceed bin 2's.
	n := 3.0
	c0 := float64(r.loads[0]) + 1 + (n-1)*m[0]
	c1 := float64(r.loads[1]) + 1 + (n-1)*m[1]
	c2 := float64(r.loads[2]) + 1
	if math.Abs(c0-c1) > 1e-9 || c0 > c2 {
		t.Fatalf("indifference violated: c=(%v,%v,%v)", c0, c1, c2)
	}
}

func TestEquilibriumStrategyPartialImbalance(t *testing.T) {
	r, _ := NewRRA(5, 3)
	r.loads = []int64{2, 3, 4}
	m := r.EquilibriumStrategy()
	var sum float64
	for _, p := range m {
		if p < -1e-12 {
			t.Fatalf("negative probability: %v", m)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Expected completion λ_a = ℓ_a + 1 + (n−1)x_a must be equal across
	// the support and no worse off-support.
	var level float64 = -1
	for a, p := range m {
		lam := float64(r.loads[a]) + 1 + 4*p
		if p > 1e-9 {
			if level < 0 {
				level = lam
			} else if math.Abs(lam-level) > 1e-6 {
				t.Fatalf("support not indifferent: λ%d=%v level=%v (m=%v)", a, lam, level, m)
			}
		} else if lam < level-1e-6 {
			t.Fatalf("off-support bin strictly better: λ%d=%v level=%v", a, lam, level)
		}
	}
}

func TestEquilibriumSingleAgent(t *testing.T) {
	r, _ := NewRRA(1, 3)
	r.loads = []int64{5, 2, 7}
	m := r.EquilibriumStrategy()
	if m[1] != 1 {
		t.Fatalf("single agent should deterministically pick min-load bin: %v", m)
	}
}

func TestStepConservation(t *testing.T) {
	r, _ := NewRRA(6, 4)
	choose := r.EquilibriumChooser(99)
	for k := 1; k <= 50; k++ {
		if _, err := r.Step(choose); err != nil {
			t.Fatal(err)
		}
		if got, want := r.TotalLoad(), int64(6*k); got != want {
			t.Fatalf("round %d: total load %d, want %d", k, got, want)
		}
	}
	if r.Rounds() != 50 {
		t.Fatalf("rounds = %d, want 50", r.Rounds())
	}
}

func TestStepRejectsOutOfRangeChoice(t *testing.T) {
	r, _ := NewRRA(2, 2)
	_, err := r.Step(func(agent int, loads []int64) int { return 7 })
	if !errors.Is(err, ErrActionRange) {
		t.Fatalf("err = %v, want ErrActionRange", err)
	}
}

func TestLemma6SpreadBoundUnderEquilibriumPlay(t *testing.T) {
	// Lemma 6: under repeated Nash play, M(k) − ℓ_a(k) ≤ 2n−1 for all a;
	// in particular the max-min spread Δ(k) ≤ 2n−1.
	for _, cfg := range []struct{ n, b int }{{4, 2}, {4, 4}, {8, 3}, {16, 8}} {
		r, err := NewRRA(cfg.n, cfg.b)
		if err != nil {
			t.Fatal(err)
		}
		choose := r.EquilibriumChooser(uint64(cfg.n*1000 + cfg.b))
		bound := int64(2*cfg.n - 1)
		for k := 0; k < 400; k++ {
			if _, err := r.Step(choose); err != nil {
				t.Fatal(err)
			}
			if d := r.Spread(); d > bound {
				t.Fatalf("n=%d b=%d round %d: spread %d exceeds Lemma 6 bound %d",
					cfg.n, cfg.b, k+1, d, bound)
			}
		}
	}
}

func TestTheorem5AnarchyCostBound(t *testing.T) {
	// Theorem 5: R(k) ≤ 1 + 2b/k for the supervised RRA game. We verify
	// the realized ratio M(k)/OPT(k) stays under the bound (up to the
	// integrality slack OPT ≥ nk/b the proof uses).
	const seeds = 5
	for _, cfg := range []struct{ n, b int }{{4, 2}, {8, 4}} {
		for seed := uint64(0); seed < seeds; seed++ {
			r, err := NewRRA(cfg.n, cfg.b)
			if err != nil {
				t.Fatal(err)
			}
			choose := r.EquilibriumChooser(seed)
			for k := 1; k <= 1000; k++ {
				if _, err := r.Step(choose); err != nil {
					t.Fatal(err)
				}
				if k < 10 {
					continue // tiny k: integrality dominates
				}
				ratio := float64(r.MaxLoad()) / float64(OptMaxLoad(cfg.n, cfg.b, k))
				bound := 1 + 2*float64(cfg.b)/float64(k) + 0.05
				if ratio > bound {
					t.Fatalf("n=%d b=%d k=%d: R(k)=%v exceeds 1+2b/k=%v",
						cfg.n, cfg.b, k, ratio, bound)
				}
			}
		}
	}
}

func TestHogChooserDamagesBalance(t *testing.T) {
	honest, _ := NewRRA(4, 4)
	attacked, _ := NewRRA(4, 4)
	honestChoose := honest.EquilibriumChooser(7)
	attackedEq := attacked.EquilibriumChooser(7)
	hog := HogChooser()
	for k := 0; k < 300; k++ {
		if _, err := honest.Step(honestChoose); err != nil {
			t.Fatal(err)
		}
		if _, err := attacked.Step(func(agent int, loads []int64) int {
			if agent == 0 {
				return hog(agent, loads)
			}
			return attackedEq(agent, loads)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if attacked.MaxLoad() <= honest.MaxLoad() {
		t.Fatalf("hog did not worsen makespan: attacked %d vs honest %d",
			attacked.MaxLoad(), honest.MaxLoad())
	}
}

func TestRoundGameIsCongestionGame(t *testing.T) {
	rg := &RoundGame{NAgents: 3, Loads: []int64{0, 2, 0}}
	// All three on bin 0: cost = 0 + 3.
	if c := rg.Cost(0, Profile{0, 0, 0}); c != 3 {
		t.Fatalf("cost = %v, want 3", c)
	}
	// Spread out: bin loads 0,2,0 → picking empty bin alone costs 1.
	if c := rg.Cost(2, Profile{0, 1, 2}); c != 1 {
		t.Fatalf("cost = %v, want 1", c)
	}
	// PNEs of the round game must be balanced assignments over bins 0,2.
	pnes, err := PureNashEquilibria(rg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) == 0 {
		t.Fatal("round game has no PNE; congestion games always do")
	}
	for _, p := range pnes {
		for _, c := range p {
			if c == 1 {
				t.Fatalf("PNE %v uses overloaded bin 1", p)
			}
		}
	}
}

func TestQuickEquilibriumStrategyIsDistribution(t *testing.T) {
	f := func(l0, l1, l2 uint8, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		loads := []int64{int64(l0), int64(l1), int64(l2)}
		m := rraEquilibrium(loads, n)
		var sum float64
		for _, p := range m {
			if p < -1e-9 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedChooser(t *testing.T) {
	choose := FixedChooser(2)
	if got := choose(5, []int64{9, 9, 0, 9}); got != 2 {
		t.Fatalf("FixedChooser(2) returned %d", got)
	}
}

// TestRRASetState loads a played game's state into a fresh one of the
// same shape: the loads and round count come back, in the fresh game's
// own slice; a state for another shape is refused.
func TestRRASetState(t *testing.T) {
	r, _ := NewRRA(5, 3)
	for k := 0; k < 7; k++ {
		if _, err := r.Step(r.EquilibriumChooser(9)); err != nil {
			t.Fatal(err)
		}
	}
	loads := r.Loads()
	fresh, _ := NewRRA(5, 3)
	if err := fresh.SetState(r.Rounds(), loads); err != nil {
		t.Fatal(err)
	}
	loads[0]++
	if fresh.Rounds() != r.Rounds() || !reflect.DeepEqual(fresh.Loads(), r.Loads()) {
		t.Fatalf("state %d %v, want %d %v", fresh.Rounds(), fresh.Loads(), r.Rounds(), r.Loads())
	}
	if err := fresh.SetState(1, []int64{1, 2}); !errors.Is(err, ErrRRAConfig) {
		t.Fatalf("two loads for three resources: err = %v, want ErrRRAConfig", err)
	}
}
