package game

import (
	"math"
	"testing"

	// metrics would be an import cycle; PoA/PoS are recomputed inline here.
	"sort"
)

// poaPos brute-forces PoA and PoS over the full profile space.
func poaPos(t *testing.T, g Game) (poa, pos float64) {
	t.Helper()
	opt := math.Inf(1)
	ForEachProfile(g, func(p Profile) bool {
		if c := SocialCost(g, p, nil); c < opt {
			opt = c
		}
		return true
	})
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatalf("PureNashEquilibria: %v", err)
	}
	if len(pnes) == 0 {
		t.Fatalf("game %v has no PNE", g)
	}
	worst, best := math.Inf(-1), math.Inf(1)
	for _, p := range pnes {
		c := SocialCost(g, p, nil)
		if c > worst {
			worst = c
		}
		if c < best {
			best = c
		}
	}
	if opt <= 0 {
		t.Fatalf("non-positive optimum %v", opt)
	}
	return worst / opt, best / opt
}

func profileSet(ps []Profile) map[string]bool {
	set := make(map[string]bool, len(ps))
	for _, p := range ps {
		key := ""
		for _, a := range p {
			key += string(rune('0' + a))
		}
		set[key] = true
	}
	return set
}

func TestCongestionGameEqualRatesBalanced(t *testing.T) {
	g, err := CongestionGame(2, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With equal rates the PNEs are exactly the two split assignments.
	want := profileSet([]Profile{{0, 1}, {1, 0}})
	if got := profileSet(pnes); len(got) != len(want) {
		t.Fatalf("PNEs = %v, want the two splits", pnes)
	} else {
		for k := range want {
			if !got[k] {
				t.Fatalf("PNEs = %v, want the two splits", pnes)
			}
		}
	}
	poa, pos := poaPos(t, g)
	if math.Abs(poa-1) > Eps || math.Abs(pos-1) > Eps {
		t.Fatalf("equal-rate congestion PoA=%v PoS=%v, want 1, 1", poa, pos)
	}
}

func TestCongestionGameUnequalRatesPoA(t *testing.T) {
	g, err := CongestionGame(2, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) is a tie-supported PNE at social cost 4; OPT splits at cost 3.
	if !IsPureNash(g, Profile{0, 0}) {
		t.Fatal("(0,0) should be a PNE of congestion rates {1,2}")
	}
	poa, pos := poaPos(t, g)
	if math.Abs(poa-4.0/3.0) > Eps {
		t.Fatalf("PoA = %v, want 4/3", poa)
	}
	if math.Abs(pos-1) > Eps {
		t.Fatalf("PoS = %v, want 1", pos)
	}
	// Balance condition characterizes every PNE.
	pnes, _ := PureNashEquilibria(g, 0)
	for _, p := range pnes {
		loads := []float64{0, 0}
		for _, a := range p {
			loads[a]++
		}
		rates := []float64{1, 2}
		for j := 0; j < 2; j++ {
			if loads[j] == 0 {
				continue
			}
			for k := 0; k < 2; k++ {
				if j == k {
					continue
				}
				if rates[j]*loads[j] > rates[k]*(loads[k]+1)+Eps {
					t.Fatalf("PNE %v violates the balance condition", p)
				}
			}
		}
	}
}

func TestBraessRoutingPoA(t *testing.T) {
	for _, n := range []int{2, 4} {
		g, err := BraessRouting(n)
		if err != nil {
			t.Fatal(err)
		}
		allZig := make(Profile, n)
		for i := range allZig {
			allZig[i] = 2
		}
		if !IsPureNash(g, allZig) {
			t.Fatalf("n=%d: all-Zig should be a PNE", n)
		}
		// All-Zig costs 2n per player; the Up/Down split costs 3n/2 each.
		if c := g.Cost(0, allZig); math.Abs(c-float64(2*n)) > Eps {
			t.Fatalf("n=%d: all-Zig cost %v, want %d", n, c, 2*n)
		}
		poa, pos := poaPos(t, g)
		if math.Abs(poa-4.0/3.0) > Eps {
			t.Fatalf("n=%d: PoA = %v, want 4/3", n, poa)
		}
		// PoS = 1 exactly at n=2 (the Up/Down split is a PNE there); the
		// shortcut erodes the split at larger n (13/12 at n=4) but the best
		// equilibrium always beats the worst.
		want := 1.0
		if n == 4 {
			want = 13.0 / 12.0
		}
		if math.Abs(pos-want) > Eps {
			t.Fatalf("n=%d: PoS = %v, want %v", n, pos, want)
		}
	}
}

func TestPublicGoodsPunishFlipsEquilibrium(t *testing.T) {
	// fine > 1 − benefit/n: contributing becomes strictly dominant.
	g, err := PublicGoodsPunish(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) != 1 || !pnes[0].Equal(Profile{1, 1, 1, 1}) {
		t.Fatalf("punished PNEs = %v, want unique all-contribute", pnes)
	}

	// fine < 1 − benefit/n: free riding still dominates.
	g, err = PublicGoodsPunish(4, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err = PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) != 1 || !pnes[0].Equal(Profile{0, 0, 0, 0}) {
		t.Fatalf("weakly punished PNEs = %v, want unique all-defect", pnes)
	}
}

func TestMinorityGameEquilibria(t *testing.T) {
	g, err := MinorityGame(3)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The PNEs are exactly the six 1-vs-2 splits (all-same profiles are
	// refuted by the deviation to sole minority).
	if len(pnes) != 6 {
		t.Fatalf("minority(3) has %d PNEs (%v), want 6", len(pnes), pnes)
	}
	for _, p := range pnes {
		ones := 0
		for _, a := range p {
			ones += a
		}
		if ones == 0 || ones == 3 {
			t.Fatalf("all-same profile %v must not be a PNE", p)
		}
	}
	poa, pos := poaPos(t, g)
	if math.Abs(poa-1) > Eps || math.Abs(pos-1) > Eps {
		t.Fatalf("minority PoA=%v PoS=%v, want 1, 1", poa, pos)
	}
}

func TestFirstPriceAuctionEquilibrium(t *testing.T) {
	g, err := FirstPriceAuction([]float64{3, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Bidder 0 (value 3) wins at the second-highest value: (1,1) is a PNE
	// (ties break toward the lowest index).
	if !IsPureNash(g, Profile{1, 1}) {
		t.Fatal("(1,1) should be a PNE of the (3,1) first-price auction")
	}
	// Overbidding oneself into negative utility is never an equilibrium for
	// the winner when dropping out is available.
	if IsPureNash(g, Profile{0, 3}) {
		t.Fatal("(0,3): bidder 1 winning at 3 with value 1 must not be a PNE")
	}
	// In every PNE the high-value bidder wins.
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) == 0 {
		t.Fatal("first-price auction has no PNE on the grid")
	}
	for _, p := range pnes {
		if p[1] > p[0] {
			t.Fatalf("PNE %v lets the low-value bidder win", p)
		}
	}
}

func TestSecondPriceAuctionTruthfulIsNash(t *testing.T) {
	g, err := SecondPriceAuction([]float64{3, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	truthful := Profile{3, 1}
	if !IsPureNash(g, truthful) {
		t.Fatal("truthful bidding should be a PNE of the second-price auction")
	}
	// Winner pays the second-highest bid: utility 3−1=2, cost shift−2=1.
	if c := g.Cost(0, truthful); math.Abs(c-1) > Eps {
		t.Fatalf("winner cost %v, want 1 (= maxValue 3 − utility 2)", c)
	}
	if c := g.Cost(1, truthful); math.Abs(c-3) > Eps {
		t.Fatalf("loser cost %v, want 3 (= maxValue, utility 0)", c)
	}
}

func TestPrisonersDilemmaParams(t *testing.T) {
	g, err := PrisonersDilemmaParams(0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) != 1 || !pnes[0].Equal(Profile{1, 1}) {
		t.Fatalf("PNEs = %v, want unique (Defect, Defect)", pnes)
	}
	// The canonical parameters replay the fixed PrisonersDilemma table.
	fixed := PrisonersDilemma()
	ForEachProfile(g, func(p Profile) bool {
		for i := 0; i < 2; i++ {
			if math.Abs(g.Cost(i, p)-fixed.Cost(i, p)) > Eps {
				t.Fatalf("cost mismatch vs PrisonersDilemma at %v", p)
			}
		}
		return true
	})
	poa, pos := poaPos(t, g)
	if math.Abs(poa-2) > Eps || math.Abs(pos-2) > Eps {
		t.Fatalf("PoA=%v PoS=%v, want p/r = 2", poa, pos)
	}

	if _, err := PrisonersDilemmaParams(1, 0, 2, 3); err == nil {
		t.Fatal("broken ordering must be rejected")
	}
}

func TestCoordinationNEquilibria(t *testing.T) {
	const n, k = 3, 3
	g, err := CoordinationN(n, k)
	if err != nil {
		t.Fatal(err)
	}
	pnes, err := PureNashEquilibria(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pnes) != k {
		t.Fatalf("coordination(%d,%d) has %d PNEs (%v), want the %d consensus profiles",
			n, k, len(pnes), pnes, k)
	}
	for _, p := range pnes {
		for _, a := range p {
			if a != p[0] {
				t.Fatalf("non-consensus PNE %v", p)
			}
		}
	}
	poa, pos := poaPos(t, g)
	if math.Abs(poa-float64(k)) > Eps {
		t.Fatalf("PoA = %v, want k = %d", poa, k)
	}
	if math.Abs(pos-1) > Eps {
		t.Fatalf("PoS = %v, want 1", pos)
	}
}

func TestMiningGameEquilibria(t *testing.T) {
	const reorg = 0.5
	for _, n := range []int{3, 4, 5} {
		g, err := MiningGame(n, reorg)
		if err != nil {
			t.Fatal(err)
		}
		pnes, err := PureNashEquilibria(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly the two unanimity profiles: every split leaves a losing
		// miner who profits by joining the winning chain.
		if len(pnes) != 2 {
			t.Fatalf("n=%d: mining has %d PNEs (%v), want all-extend and all-fork", n, len(pnes), pnes)
		}
		allExtend := make(Profile, n)
		allFork := make(Profile, n)
		for i := range allFork {
			allFork[i] = 1
		}
		if !IsPureNash(g, allExtend) || !IsPureNash(g, allFork) {
			t.Fatalf("n=%d: unanimity profiles must both be PNEs", n)
		}
		for _, p := range pnes {
			for _, a := range p {
				if a != p[0] {
					t.Fatalf("n=%d: non-unanimous PNE %v", n, p)
				}
			}
		}
		poa, pos := poaPos(t, g)
		wantPoA := 1 + float64(n)*reorg/float64(n-1)
		if math.Abs(poa-wantPoA) > Eps {
			t.Fatalf("n=%d: mining PoA = %v, want 1 + n·reorg/(n−1) = %v", n, poa, wantPoA)
		}
		if math.Abs(pos-1) > Eps {
			t.Fatalf("n=%d: mining PoS = %v, want 1", n, pos)
		}
	}
	if _, err := MiningGame(2, reorg); err == nil {
		t.Fatal("MiningGame(2) must be rejected: all-fork is not a PNE at n=2")
	}
	if _, err := MiningGame(4, 0); err == nil {
		t.Fatal("zero reorg cost must be rejected")
	}
}

func TestValidatorCommitteeEquilibria(t *testing.T) {
	const slash, stale = 4.0, 0.5
	for _, n := range []int{2, 3, 4, 5, 7} {
		g, err := ValidatorCommittee(n, slash, stale)
		if err != nil {
			t.Fatal(err)
		}
		pnes, err := PureNashEquilibria(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly the two consensus attestations: finalized dissent is
		// slashed, and every stalemate has a strictly profitable switch.
		if len(pnes) != 2 {
			t.Fatalf("n=%d: committee has %d PNEs (%v), want the two consensus profiles",
				n, len(pnes), pnes)
		}
		for _, p := range pnes {
			for _, a := range p {
				if a != p[0] {
					t.Fatalf("n=%d: non-consensus PNE %v", n, p)
				}
			}
		}
		poa, pos := poaPos(t, g)
		if math.Abs(poa-(1+stale)) > Eps {
			t.Fatalf("n=%d: committee PoA = %v, want 1 + stale = %v", n, poa, 1+stale)
		}
		if math.Abs(pos-1) > Eps {
			t.Fatalf("n=%d: committee PoS = %v, want 1", n, pos)
		}
	}
	// Slashing must strictly dominate staleness for consensus-on-stale to
	// hold; degenerate parameterizations are rejected.
	if _, err := ValidatorCommittee(4, 0.5, 0.5); err == nil {
		t.Fatal("stale ≥ slash must be rejected")
	}
	if _, err := ValidatorCommittee(4, 4, 0); err == nil {
		t.Fatal("zero staleness cost must be rejected")
	}
	if _, err := ValidatorCommittee(1, 4, 0.5); err == nil {
		t.Fatal("single-validator committee must be rejected")
	}
}

func TestCatalogBuildsEverySizeRequested(t *testing.T) {
	entries := Catalog()
	if len(entries) < 5 {
		t.Fatalf("catalog has %d entries, want ≥ 5 scenario families", len(entries))
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("catalog not sorted by name: %v", names)
	}
	for _, e := range entries {
		for _, req := range []int{1, 2, 3, 5, 8} {
			n := e.Players(req)
			g, err := e.Build(n)
			if err != nil {
				t.Fatalf("%s: Build(%d): %v", e.Name, n, err)
			}
			if g.NumPlayers() != n {
				t.Fatalf("%s: Build(%d) produced %d players", e.Name, n, g.NumPlayers())
			}
			// Every catalog game must have at least one PNE at small sizes —
			// the invariant loadgen's honest agents converge to and audits
			// check against.
			if space, err := ProfileSpaceSize(g, 1<<16); err == nil && space <= 1<<16 {
				pnes, err := PureNashEquilibria(g, 1<<16)
				if err != nil {
					t.Fatalf("%s n=%d: %v", e.Name, n, err)
				}
				if len(pnes) == 0 {
					t.Fatalf("%s n=%d: no PNE", e.Name, n)
				}
			}
		}
	}
	if _, ok := ByName("congestion"); !ok {
		t.Fatal("ByName(congestion) not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should not resolve")
	}
	if ent, ok := ByName("minority"); !ok || ent.Players(4)%2 == 0 {
		t.Fatal("minority sizing must canonicalize to odd n")
	}
}

// TestByNameAllocatesNothing pins the catalog lookup at zero allocations:
// every spec-built session and every restore-on-miss resolves its game
// through it, and Catalog's entries are built once, not per lookup.
func TestByNameAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ByName("validator-committee"); !ok {
			t.Fatal("validator-committee not found")
		}
	}); allocs != 0 {
		t.Fatalf("ByName allocates %v times, want 0", allocs)
	}
	// Catalog hands out a copy: a caller's edit does not reach ByName.
	Catalog()[0].Name = "edited"
	if got := Catalog()[0].Name; got != "braess" {
		t.Fatalf("Catalog()[0].Name = %q after editing a copy, want braess", got)
	}
}
