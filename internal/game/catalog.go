package game

import (
	"fmt"
	"math"
)

// This file is the scenario catalog: constructors for classic N-player
// game families with *known* equilibrium structure, so the judicial
// service's audits and the PoA/PoS metrics stay checkable at every size
// the load harness spins up. Each constructor documents the Nash set it
// guarantees; internal/game's catalog tests pin those claims by brute
// force at small sizes, and cmd/loadgen draws its weighted scenario mix
// from Catalog.

// CongestionGame returns a symmetric singleton congestion game: n players
// each pick one of len(rates) facilities, and a facility with per-unit
// rate a and load ℓ costs a·ℓ to each player on it (linear latency).
//
// Equilibrium structure: a profile is a PNE iff the loads are balanced up
// to the rates — no player on facility j can strictly improve by moving to
// facility k, i.e. rates[j]·ℓj ≤ rates[k]·(ℓk+1) for all j,k. With equal
// rates every PNE splits the players as evenly as possible and PoA = 1;
// unequal rates open a PoA gap (rates {1,2} with n=2 gives PoA = 4/3).
func CongestionGame(n int, rates []float64) (*TableGame, error) {
	if n < 2 || len(rates) < 2 {
		return nil, fmt.Errorf("%w: congestion game needs n ≥ 2 players and ≥ 2 facilities", ErrProfileShape)
	}
	for j, a := range rates {
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("%w: facility %d rate %v (want finite > 0)", ErrActionRange, j, a)
		}
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = len(rates)
	}
	t, err := NewTableGame("congestion", shape)
	if err != nil {
		return nil, err
	}
	loads := make([]int, len(rates))
	t.Fill(func(player int, p Profile) float64 {
		for j := range loads {
			loads[j] = 0
		}
		for _, a := range p {
			loads[a]++
		}
		return rates[p[player]] * float64(loads[p[player]])
	})
	return t, nil
}

// BraessRouting returns the n-player discrete Braess routing game: every
// player routes one unit from s to t over three paths built from edges
// s→a and b→t with latency x (the number of users) and edges a→t and s→b
// with constant latency n, plus the zero-latency shortcut a→b:
//
//	action 0 (Up):   s→a→t    cost x(s→a) + n
//	action 1 (Down): s→b→t    cost n + x(b→t)
//	action 2 (Zig):  s→a→b→t  cost x(s→a) + x(b→t)
//
// Equilibrium structure: all-Zig is always a PNE (the shortcut dominates
// weakly), with social cost 2n² — while the optimum splits the players
// over Up and Down at ~3n²/2, so PoA = 4/3 at even n: the canonical
// price-of-anarchy scenario. At n = 2 the Up/Down split is itself a PNE
// and PoS = 1; for larger n the shortcut erodes the split and PoS climbs
// toward 4/3 (13/12 at n = 4).
func BraessRouting(n int) (*TableGame, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: braess routing needs n ≥ 2 players", ErrProfileShape)
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = 3
	}
	t, err := NewTableGame("braess-routing", shape)
	if err != nil {
		return nil, err
	}
	for range shape {
		t.ActionNames = append(t.ActionNames, []string{"Up", "Down", "Zig"})
	}
	t.Fill(func(player int, p Profile) float64 {
		var sa, bt int // users of edge s→a resp. b→t
		for _, a := range p {
			if a == 0 || a == 2 {
				sa++
			}
			if a == 1 || a == 2 {
				bt++
			}
		}
		switch p[player] {
		case 0:
			return float64(sa + n)
		case 1:
			return float64(n + bt)
		default:
			return float64(sa + bt)
		}
	})
	return t, nil
}

// PublicGoodsPunish returns the public-goods game with punishment: the
// PublicGoods cost structure (contributing costs 1, every contribution
// lowers everyone's cost by benefit/n) plus a fine charged to every free
// rider — the executive service's sanction folded into the cost function.
//
// Equilibrium structure: free riding saves 1 − benefit/n, so for
// fine > 1 − benefit/n contributing is strictly dominant and the unique
// PNE is all-contribute (the socially optimal profile the unpunished game
// cannot reach); for fine < 1 − benefit/n the unique PNE stays all-defect.
func PublicGoodsPunish(n int, benefit, fine float64) (*TableGame, error) {
	if fine < 0 || math.IsNaN(fine) || math.IsInf(fine, 0) {
		return nil, fmt.Errorf("%w: fine %v (want finite ≥ 0)", ErrProfileShape, fine)
	}
	t, err := PublicGoods(n, benefit)
	if err != nil {
		return nil, err
	}
	t.GameName = "public-goods-punish"
	ForEachProfile(t, func(p Profile) bool {
		for i := range p {
			if p[i] == 0 {
				t.costs[i][t.index(p)] += fine
			}
		}
		return true
	})
	return t, nil
}

// FirstPriceAuction returns the first-price sealed-bid auction among
// len(values) bidders as a strategic-form game: each bidder chooses a bid
// level in {0, …, bids−1}, the highest bid wins (ties break toward the
// lowest index, so audits are deterministic), and the winner pays its own
// bid. Costs are maxValue − utility, a per-game constant shift that keeps
// the table non-negative without moving any equilibrium.
//
// Equilibrium structure: in every PNE the winner is indifferent to one
// step down — the standard discrete-grid equilibria where the highest-
// value bidder wins at (roughly) the second-highest value. With values
// (3,1) and bids {0..3}, profile (1,1) is a PNE: bidder 0 wins at price 1.
func FirstPriceAuction(values []float64, bids int) (*TableGame, error) {
	return auction("first-price-auction", values, bids, func(winBid, othersBest float64) float64 {
		return winBid
	})
}

// SecondPriceAuction returns the Vickrey (second-price sealed-bid)
// auction on the same discrete grid: the highest bid wins (ties toward
// the lowest index) but pays the highest *losing* bid. Costs are
// maxValue − utility, as in FirstPriceAuction.
//
// Equilibrium structure: bidding one's true value is weakly dominant, so
// the truthful profile (values rounded onto the grid) is always a PNE and
// the highest-value bidder wins at the second-highest value.
func SecondPriceAuction(values []float64, bids int) (*TableGame, error) {
	return auction("second-price-auction", values, bids, func(winBid, othersBest float64) float64 {
		return othersBest
	})
}

// auction builds a sealed-bid auction table; price maps (winning bid,
// highest other bid) to what the winner pays.
func auction(name string, values []float64, bids int, price func(winBid, othersBest float64) float64) (*TableGame, error) {
	n := len(values)
	if n < 2 {
		return nil, fmt.Errorf("%w: auction needs ≥ 2 bidders", ErrProfileShape)
	}
	if bids < 2 {
		return nil, fmt.Errorf("%w: auction needs ≥ 2 bid levels", ErrActionRange)
	}
	var maxVal float64
	for i, v := range values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: bidder %d value %v (want finite ≥ 0)", ErrProfileShape, i, v)
		}
		if v > maxVal {
			maxVal = v
		}
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = bids
	}
	t, err := NewTableGame(name, shape)
	if err != nil {
		return nil, err
	}
	t.Fill(func(player int, p Profile) float64 {
		winner, winBid := 0, p[0]
		for i := 1; i < n; i++ {
			if p[i] > winBid {
				winner, winBid = i, p[i]
			}
		}
		if player != winner {
			return maxVal // utility 0
		}
		othersBest := 0
		for i, b := range p {
			if i != winner && b > othersBest {
				othersBest = b
			}
		}
		pay := price(float64(winBid), float64(othersBest))
		return maxVal - (values[winner] - pay)
	})
	return t, nil
}

// PrisonersDilemmaParams returns a parameterized prisoner's dilemma in
// cost form: t is the temptation cost (defecting on a cooperator), r the
// reward cost (mutual cooperation), p the punishment cost (mutual
// defection), and s the sucker cost (cooperating with a defector), with
// the dilemma ordering t < r < p < s. PrisonersDilemma() is the instance
// (0, 1, 2, 3).
//
// Equilibrium structure: defection strictly dominates, so the unique PNE
// is (Defect, Defect) at social cost 2p, while mutual cooperation costs
// 2r < 2p — PoA = PoS = p/r when r > 0.
func PrisonersDilemmaParams(t, r, p, s float64) (*Bimatrix, error) {
	for _, v := range []float64{t, r, p, s} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite cost parameter", ErrProfileShape)
		}
	}
	if !(t < r && r < p && p < s) {
		return nil, fmt.Errorf("%w: want dilemma ordering t < r < p < s, got t=%v r=%v p=%v s=%v",
			ErrProfileShape, t, r, p, s)
	}
	costA := [][]float64{
		{r, s},
		{t, p},
	}
	costB := [][]float64{
		{r, t},
		{s, p},
	}
	g, err := NewBimatrix("prisoners-dilemma-params", costA, costB)
	if err != nil {
		return nil, err
	}
	g.RowNames = []string{"Cooperate", "Defect"}
	g.ColNames = []string{"Cooperate", "Defect"}
	return g, nil
}

// CoordinationN returns an n-player, k-action coordination (consensus)
// game: action a has intrinsic quality cost 1+a, and every player also
// pays k+1 per player who chose a different action. The mismatch penalty
// dominates any quality difference, so consensus is always worth joining.
//
// Equilibrium structure: the PNEs are exactly the k consensus profiles.
// Consensus on action a costs every player 1+a, so PoA = k (worst
// consensus: the highest-index action) and PoS = 1 (best consensus:
// action 0 is also the social optimum) — the PoA/PoS gap scenario at any
// size.
func CoordinationN(n, k int) (*TableGame, error) {
	if n < 2 || k < 2 {
		return nil, fmt.Errorf("%w: coordination needs n ≥ 2 players and k ≥ 2 actions", ErrProfileShape)
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = k
	}
	t, err := NewTableGame("coordination-n", shape)
	if err != nil {
		return nil, err
	}
	t.Fill(func(player int, p Profile) float64 {
		matches := 0
		for _, a := range p {
			if a == p[player] {
				matches++
			}
		}
		return float64(n-matches)*float64(k+1) + 1 + float64(p[player])
	})
	return t, nil
}

// MiningGame returns the longest-chain fork-choice race as an n-player
// game: each miner either extends the public head (action 0) or backs a
// competing fork (action 1). The fork wins only with a strict majority of
// hash power (ties resolve to the incumbent chain). Each miner pays unit
// mining cost; winners recoup an equal share of the block reward, so a
// winning-side miner pays 1 − 1/v where v miners share the win, and losers
// pay the full 1. A successful fork additionally charges every miner the
// reorg cost (stale confirmations, replayed state) — the externality that
// separates the two consensus outcomes.
//
// Equilibrium structure: for n ≥ 3 the PNEs are exactly all-extend and
// all-fork — any split leaves a losing miner who strictly gains by joining
// the winning side, while leaving unanimity strands the deviator on a
// losing one-miner chain. All-extend is the social optimum at cost n−1;
// all-fork adds n·reorg, so PoA = 1 + n·reorg/(n−1) and PoS = 1.
func MiningGame(n int, reorg float64) (*TableGame, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: mining needs n ≥ 3 miners (at n = 2 all-fork is not a PNE)", ErrProfileShape)
	}
	if reorg <= 0 || math.IsNaN(reorg) || math.IsInf(reorg, 0) {
		return nil, fmt.Errorf("%w: reorg cost %v (want finite > 0)", ErrProfileShape, reorg)
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = 2
	}
	t, err := NewTableGame("mining", shape)
	if err != nil {
		return nil, err
	}
	t.Fill(func(player int, p Profile) float64 {
		forkers := 0
		for _, a := range p {
			forkers += a
		}
		extenders := n - forkers
		forkWins := forkers > extenders
		cost := 1.0
		if (p[player] == 1) == forkWins { // winning side shares the reward
			winners := extenders
			if forkWins {
				winners = forkers
			}
			cost -= 1 / float64(winners)
		}
		if forkWins {
			cost += reorg
		}
		return cost
	})
	return t, nil
}

// ValidatorCommittee returns committee attestation voting as an n-player
// game: each validator attests to the canonical block (action 0) or a
// competing stale block (action 1). A side is finalized when it reaches
// the ⌊2n/3⌋+1 quorum — the interactive-consistency threshold, so at most
// one side can finalize. Every validator pays unit participation cost;
// attesting stale adds the intrinsic staleness cost; once a side is
// finalized every validator on the other side is slashed. If neither side
// reaches quorum, everyone pays the missed-finality penalty of 2, relieved
// by v/n where v is the size of the validator's own faction — larger
// factions are closer to finalizing, which makes every stalemate
// escapable by a single switch.
//
// Equilibrium structure: for n ≥ 2 and 0 < stale < slash the PNEs are
// exactly the two consensus profiles. Dissent under a finalized side costs
// the slash; in a stalemate one of the two switch directions always
// strictly pays (the faction-size relief terms cannot both be unprofitable
// at once). All-canonical is the social optimum at cost n; all-stale adds
// stale per validator, so PoA = 1 + stale and PoS = 1.
func ValidatorCommittee(n int, slash, stale float64) (*TableGame, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: committee needs n ≥ 2 validators", ErrProfileShape)
	}
	if math.IsNaN(slash) || math.IsInf(slash, 0) || math.IsNaN(stale) || math.IsInf(stale, 0) {
		return nil, fmt.Errorf("%w: non-finite committee parameter", ErrProfileShape)
	}
	if !(0 < stale && stale < slash) {
		return nil, fmt.Errorf("%w: want 0 < stale < slash, got stale=%v slash=%v",
			ErrProfileShape, stale, slash)
	}
	const missedFinality = 2.0
	quorum := 2*n/3 + 1
	shape := make([]int, n)
	for i := range shape {
		shape[i] = 2
	}
	t, err := NewTableGame("validator-committee", shape)
	if err != nil {
		return nil, err
	}
	t.Fill(func(player int, p Profile) float64 {
		staleVotes := 0
		for _, a := range p {
			staleVotes += a
		}
		canonVotes := n - staleVotes
		cost := 1.0
		if p[player] == 1 {
			cost += stale
		}
		switch {
		case canonVotes >= quorum:
			if p[player] == 1 {
				cost += slash
			}
		case staleVotes >= quorum:
			if p[player] == 0 {
				cost += slash
			}
		default:
			faction := canonVotes
			if p[player] == 1 {
				faction = staleVotes
			}
			cost += missedFinality - float64(faction)/float64(n)
		}
		return cost
	})
	return t, nil
}

// CatalogEntry describes one scenario family the repo can generate at any
// size: a registry name, a sizing rule, a builder, and the equilibrium
// structure the family guarantees (what the catalog tests pin down).
type CatalogEntry struct {
	// Name is the registry key (also accepted by the HTTP API's game field).
	Name string
	// Players canonicalizes a requested size to one the family supports
	// (e.g. the minority game rounds to odd n).
	Players func(n int) int
	// Build constructs the game at the canonical size.
	Build func(n int) (Game, error)
	// Equilibrium is a one-line statement of the known Nash structure.
	Equilibrium string
}

// Catalog returns the scenario catalog: every generated family with a
// default parameterization, ordered by name. cmd/loadgen draws its
// scenario mix from here, and the HTTP API resolves these names in
// POST /sessions. The slice is the caller's copy.
func Catalog() []CatalogEntry { return append([]CatalogEntry(nil), catalog...) }

// ByName resolves a catalog entry, reporting ok=false for unknown names.
// It allocates nothing: every spec-built session and every restore-on-miss
// resolves its game here.
func ByName(name string) (CatalogEntry, bool) {
	for i := range catalog {
		if catalog[i].Name == name {
			return catalog[i], true
		}
	}
	return CatalogEntry{}, false
}

// atLeast is the sizing rule of a family that needs min players.
func atLeast(min int) func(int) int {
	return func(n int) int {
		if n < min {
			return min
		}
		return n
	}
}

// catalog is the one copy of the entries, built once.
var catalog = []CatalogEntry{
	{
		Name:        "braess",
		Players:     atLeast(2),
		Build:       func(n int) (Game, error) { return BraessRouting(n) },
		Equilibrium: "all-Zig is a PNE; PoA = 4/3 at even n",
	},
	{
		Name:    "congestion",
		Players: atLeast(2),
		Build: func(n int) (Game, error) {
			// Two fast facilities and one slow one per four players keeps
			// the load-balanced equilibria non-trivial at every size.
			m := 2 + n/4
			rates := make([]float64, m)
			for j := range rates {
				rates[j] = 1 + float64(j%2)
			}
			return CongestionGame(n, rates)
		},
		Equilibrium: "PNEs are the rate-weighted load-balanced assignments",
	},
	{
		// "-n" keeps the registry key clear of the HTTP API's legacy
		// "coordination" (the fixed 2×2 CoordinationGame).
		Name:        "coordination-n",
		Players:     atLeast(2),
		Build:       func(n int) (Game, error) { return CoordinationN(n, 3) },
		Equilibrium: "PNEs are exactly the k consensus profiles; PoA = k, PoS = 1",
	},
	{
		Name:    "firstprice",
		Players: atLeast(2),
		Build: func(n int) (Game, error) {
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(n - i) // distinct values, bidder 0 highest
			}
			return FirstPriceAuction(values, auctionGrid(n))
		},
		Equilibrium: "winner bids ~second-highest value on the discrete grid",
	},
	{
		Name:        "mining",
		Players:     atLeast(3),
		Build:       func(n int) (Game, error) { return MiningGame(n, 0.5) },
		Equilibrium: "PNEs are exactly all-extend and all-fork; PoA = 1 + n·reorg/(n−1), PoS = 1",
	},
	{
		Name:        "minority",
		Players:     func(n int) int { n = atLeast(3)(n); return n | 1 },
		Build:       func(n int) (Game, error) { return MinorityGame(n) },
		Equilibrium: "PNEs are the maximal-minority splits ((n−1)/2 vs (n+1)/2); PoA = 1",
	},
	{
		Name:        "pd",
		Players:     func(int) int { return 2 },
		Build:       func(int) (Game, error) { return PrisonersDilemmaParams(0, 1, 2, 3) },
		Equilibrium: "unique PNE (Defect, Defect); PoA = PoS = p/r",
	},
	{
		Name:        "publicgoods-punish",
		Players:     atLeast(2),
		Build:       func(n int) (Game, error) { return PublicGoodsPunish(n, 2, 1) },
		Equilibrium: "fine > 1 − benefit/n ⇒ unique PNE all-contribute",
	},
	{
		Name:    "secondprice",
		Players: atLeast(2),
		Build: func(n int) (Game, error) {
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(n - i)
			}
			return SecondPriceAuction(values, auctionGrid(n))
		},
		Equilibrium: "truthful bidding is weakly dominant; truthful profile is a PNE",
	},
	{
		Name:        "validator-committee",
		Players:     atLeast(2),
		Build:       func(n int) (Game, error) { return ValidatorCommittee(n, 4, 0.5) },
		Equilibrium: "PNEs are exactly the two consensus attestations; PoA = 1 + stale, PoS = 1",
	},
}

// auctionGrid sizes the bid grid for the catalog auctions: one level per
// value at small n, capped at 5 so the dense table (bids^n entries per
// player) stays load-harness-sized at larger player counts.
func auctionGrid(n int) int {
	if n+1 > 5 {
		return 5
	}
	return n + 1
}
