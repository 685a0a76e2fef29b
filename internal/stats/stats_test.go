package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gameauthority/internal/game"
)

func TestOptimalSocialCost(t *testing.T) {
	g := game.PrisonersDilemma()
	opt, p, err := OptimalSocialCost(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cooperate/cooperate has social cost 2 — the optimum.
	if opt != 2 || !p.Equal(game.Profile{0, 0}) {
		t.Fatalf("opt = %v at %v, want 2 at [0 0]", opt, p)
	}
}

func TestPoAPoSPrisonersDilemma(t *testing.T) {
	g := game.PrisonersDilemma()
	poa, err := PriceOfAnarchy(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := PriceOfStability(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unique PNE (defect,defect) costs 4; optimum 2 → PoA = PoS = 2.
	if math.Abs(poa-2) > 1e-12 || math.Abs(pos-2) > 1e-12 {
		t.Fatalf("PoA=%v PoS=%v, want 2, 2", poa, pos)
	}
}

func TestPoAPoSGapCoordination(t *testing.T) {
	g := game.CoordinationGame()
	poa, err := PriceOfAnarchy(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := PriceOfStability(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Equilibria (L,L) cost 2 and (R,R) cost 4; optimum 2.
	if math.Abs(pos-1) > 1e-12 {
		t.Fatalf("PoS = %v, want 1", pos)
	}
	if math.Abs(poa-2) > 1e-12 {
		t.Fatalf("PoA = %v, want 2", poa)
	}
	if pos > poa {
		t.Fatal("PoS must never exceed PoA")
	}
}

func TestPoAErrNoEquilibria(t *testing.T) {
	if _, err := PriceOfAnarchy(game.MatchingPennies(), 0); !errors.Is(err, ErrNoEquilibria) {
		t.Fatalf("matching pennies PoA err = %v, want ErrNoEquilibria", err)
	}
}

func TestPriceOfMalice(t *testing.T) {
	pom, err := PriceOfMalice(15, 10)
	if err != nil || math.Abs(pom-1.5) > 1e-12 {
		t.Fatalf("PoM = %v, %v; want 1.5", pom, err)
	}
	if _, err := PriceOfMalice(1, 0); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("zero base cost: %v", err)
	}
}

func TestMultiRoundAnarchyCost(t *testing.T) {
	r, err := MultiRoundAnarchyCost(12, 10)
	if err != nil || math.Abs(r-1.2) > 1e-12 {
		t.Fatalf("R = %v, %v", r, err)
	}
	if _, err := MultiRoundAnarchyCost(1, 0); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("zero OPT: %v", err)
	}
}

func TestTheorem5Bound(t *testing.T) {
	if got := Theorem5Bound(4, 8); math.Abs(got-2) > 1e-12 {
		t.Fatalf("bound(4,8) = %v, want 2", got)
	}
	if !math.IsInf(Theorem5Bound(4, 0), 1) {
		t.Fatal("bound at k=0 should be +Inf")
	}
	// Monotone decreasing in k, approaching 1.
	prev := math.Inf(1)
	for _, k := range []int{1, 10, 100, 1000} {
		b := Theorem5Bound(2, k)
		if b >= prev {
			t.Fatalf("bound not decreasing at k=%d", k)
		}
		prev = b
	}
	if prev < 1 {
		t.Fatal("bound fell below 1")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 || math.Abs(s.P50-3) > 1e-12 {
		t.Fatalf("mean/median = %v/%v, want 3/3", s.Mean, s.P50)
	}
	if s.Std <= 0 {
		t.Fatalf("std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.P95 != 7 || one.Std != 0 {
		t.Fatalf("singleton summary = %+v", one)
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPoSNeverExceedsPoA(t *testing.T) {
	// Random 2x2 cost games with positive costs: when PNEs exist,
	// PoS ≤ PoA must hold.
	f := func(a, b, c, d, e, ff, g2, h uint8) bool {
		costA := [][]float64{{float64(a%9) + 1, float64(b%9) + 1}, {float64(c%9) + 1, float64(d%9) + 1}}
		costB := [][]float64{{float64(e%9) + 1, float64(ff%9) + 1}, {float64(g2%9) + 1, float64(h%9) + 1}}
		g, err := game.NewBimatrix("rand", costA, costB)
		if err != nil {
			return false
		}
		poa, errA := PriceOfAnarchy(g, 0)
		pos, errS := PriceOfStability(g, 0)
		if errors.Is(errA, ErrNoEquilibria) {
			return errors.Is(errS, ErrNoEquilibria)
		}
		if errA != nil || errS != nil {
			return false
		}
		return pos <= poa+1e-12 && pos >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
