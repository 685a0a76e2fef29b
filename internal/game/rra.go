package game

import (
	"errors"
	"fmt"
	"sort"

	"gameauthority/internal/prng"
)

// This file implements the repeated resource allocation (RRA) game of §6:
// n agents repeatedly place a single unit demand on one of b resources
// ("bins"); the load of a resource determines service time, every agent
// wants the least-loaded resource, loads are public after every play, the
// number of plays is unknown, so selfish agents play a fresh (repeated) Nash
// equilibrium in every round. Theorem 5 shows the supervised game has
// multi-round anarchy cost R(k) ≤ 1 + 2b/k, hence R = 1 asymptotically.

// ErrRRAConfig reports an invalid RRA configuration.
var ErrRRAConfig = errors.New("game: invalid RRA configuration")

// RRA holds the evolving state of the repeated resource allocation game.
type RRA struct {
	n, b   int
	loads  []int64 // ℓ_a(k): cumulative demand placed on resource a
	rounds int     // k: number of completed plays
}

// NewRRA creates an RRA instance with n agents and b resources and the
// paper's initial zero demand on all resources.
func NewRRA(n, b int) (*RRA, error) {
	if n < 1 || b < 2 {
		return nil, fmt.Errorf("%w: n=%d b=%d (need n≥1, b≥2)", ErrRRAConfig, n, b)
	}
	return &RRA{n: n, b: b, loads: make([]int64, b)}, nil
}

// N returns the number of agents, B the number of resources, Rounds the
// number of completed plays k.
func (r *RRA) N() int      { return r.n }
func (r *RRA) B() int      { return r.b }
func (r *RRA) Rounds() int { return r.rounds }

// Loads returns a copy of the current cumulative loads ℓ_a(k).
func (r *RRA) Loads() []int64 {
	return append([]int64(nil), r.loads...)
}

// Load returns the current cumulative load of one resource without
// copying the whole vector — the play hot path's per-choice cost read.
func (r *RRA) Load(a int) int64 { return r.loads[a] }

// SetState replaces the game's state with a round count k and the loads
// ℓ_a(k), copied into the game's own slice.
func (r *RRA) SetState(rounds int, loads []int64) error {
	if rounds < 0 || len(loads) != r.b {
		return fmt.Errorf("%w: a state of %d loads for %d resources", ErrRRAConfig, len(loads), r.b)
	}
	r.rounds = rounds
	copy(r.loads, loads)
	return nil
}

// MaxLoad returns M(k) = max_a ℓ_a(k).
func (r *RRA) MaxLoad() int64 {
	var m int64
	for _, l := range r.loads {
		if l > m {
			m = l
		}
	}
	return m
}

// MinLoad returns m(k) = min_a ℓ_a(k).
func (r *RRA) MinLoad() int64 {
	m := r.loads[0]
	for _, l := range r.loads[1:] {
		if l < m {
			m = l
		}
	}
	return m
}

// Spread returns Δ(k) = M(k) − m(k). Lemma 6 bounds the equilibrium spread
// against any single resource by 2n−1; the max-min spread is what we track
// empirically.
func (r *RRA) Spread() int64 { return r.MaxLoad() - r.MinLoad() }

// TotalLoad returns Σ_a ℓ_a(k); the invariant TotalLoad == n·k holds when
// every agent places exactly one demand per play.
func (r *RRA) TotalLoad() int64 {
	var t int64
	for _, l := range r.loads {
		t += l
	}
	return t
}

// OptMaxLoad returns OPT(k), the optimal (centralistic) maximum load after
// k rounds: ⌈nk/b⌉ — a perfectly balanced assignment.
func OptMaxLoad(n, b, k int) int64 {
	if k <= 0 {
		return 0
	}
	total := int64(n) * int64(k)
	return (total + int64(b) - 1) / int64(b)
}

// EquilibriumStrategy returns the symmetric mixed equilibrium over resources
// for the current loads: the water-filling distribution that equalizes the
// expected completion cost λ_a = ℓ_a + 1 + (n−1)·x_a across the support
// (derivation in §6's proof of Theorem 5). All agents share this strategy
// since the game is symmetric and loads are common knowledge (complete
// information).
func (r *RRA) EquilibriumStrategy() Mixed {
	return rraEquilibrium(r.loads, r.n)
}

// rraEquilibrium computes the water-filling equilibrium for the given loads.
func rraEquilibrium(loads []int64, n int) Mixed {
	b := len(loads)
	if n == 1 {
		// Single agent: pure best response to the least-loaded bin.
		best := 0
		for a := 1; a < b; a++ {
			if loads[a] < loads[best] {
				best = a
			}
		}
		return Degenerate(b, best)
	}
	// Sort resource indices by load.
	idx := make([]int, b)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return loads[idx[i]] < loads[idx[j]] })

	// Find the water level t: support S = {a : ℓ_a < t−1}, with
	// x_a = (t − 1 − ℓ_a)/(n−1) and Σ_{a∈S} x_a = 1
	// ⇒ t = 1 + (n−1 + Σ_{a∈S} ℓ_a)/|S|.
	// Grow the support in load order while the water level covers the
	// next resource.
	var sumLoads int64
	support := 0
	t := 0.0
	for s := 1; s <= b; s++ {
		sumLoads += loads[idx[s-1]]
		cand := 1 + (float64(n-1)+float64(sumLoads))/float64(s)
		// Valid iff every member has positive mass: ℓ_a < cand−1 for
		// a in support, i.e. cand−1 > largest member load — and the
		// next (excluded) resource must not want in: cand−1 ≤ ℓ_next.
		if float64(loads[idx[s-1]]) >= cand-1+Eps {
			break // the s-th resource would get non-positive mass
		}
		t = cand
		support = s
	}
	m := make(Mixed, b)
	for s := 0; s < support; s++ {
		a := idx[s]
		m[a] = (t - 1 - float64(loads[a])) / float64(n-1)
	}
	normalize(m) // absorb FP residue so Σ=1 exactly enough for sampling
	return m
}

// Step plays one round: agents[i] must return the chosen resource for agent
// i given the public loads. Returns the per-agent choices. The caller is
// responsible for validating choices (the judicial service's job); Step
// itself accepts any in-range choice and clamps nothing.
func (r *RRA) Step(choose func(agent int, loads []int64) int) (Profile, error) {
	choices := make(Profile, r.n)
	snapshot := r.Loads()
	for i := 0; i < r.n; i++ {
		c := choose(i, snapshot)
		if c < 0 || c >= r.b {
			return nil, fmt.Errorf("%w: agent %d chose resource %d (b=%d)", ErrActionRange, i, c, r.b)
		}
		choices[i] = c
	}
	for _, c := range choices {
		r.loads[c]++
	}
	r.rounds++
	return choices, nil
}

// EquilibriumChooser returns a choose function where every agent samples the
// symmetric equilibrium strategy with its own derived stream — the honest
// behaviour the game authority enforces. Streams are derived from seed,
// agent id and round so audits can replay them.
func (r *RRA) EquilibriumChooser(seed uint64) func(agent int, loads []int64) int {
	return func(agent int, loads []int64) int {
		mixed := rraEquilibrium(loads, r.n)
		sampler, err := mixed.Sampler()
		if err != nil {
			// The equilibrium always has positive support; reaching
			// here means memory corruption, so fail loudly.
			panic(fmt.Sprintf("rra: equilibrium sampler: %v", err))
		}
		src := prng.Derive(seed, uint64(agent), uint64(r.rounds))
		return sampler.Sample(src)
	}
}

// GreedyChooser returns a choose function where agents pick the least-loaded
// resource (ties toward the lowest index) — the natural pure-strategy
// variant; used as a comparison baseline.
func (r *RRA) GreedyChooser() func(agent int, loads []int64) int {
	return func(agent int, loads []int64) int {
		best := 0
		for a := 1; a < len(loads); a++ {
			if loads[a] < loads[best] {
				best = a
			}
		}
		return best
	}
}

// HogChooser returns a choose function modelling a malicious agent that
// always dumps its demand on the currently most-loaded resource, maximizing
// the makespan (social damage) instead of its own service time.
func HogChooser() func(agent int, loads []int64) int {
	return func(agent int, loads []int64) int {
		worst := 0
		for a := 1; a < len(loads); a++ {
			if loads[a] > loads[worst] {
				worst = a
			}
		}
		return worst
	}
}

// FixedChooser returns a choose function that always picks resource a —
// another simple adversarial behaviour (herd onto one bin).
func FixedChooser(a int) func(agent int, loads []int64) int {
	return func(int, []int64) int { return a }
}

// RoundGame is the one-shot strategic-form view of the next RRA play given
// the current loads: cost_i(π) = ℓ_{π_i} + |{j : π_j = π_i}| (the backlog
// plus this round's contention). The judicial service uses it for
// legitimacy and the stats package for equilibrium analysis.
type RoundGame struct {
	NAgents int
	Loads   []int64
}

var _ Game = (*RoundGame)(nil)

// RoundView returns the strategic-form game of the next play.
func (r *RRA) RoundView() *RoundGame {
	return &RoundGame{NAgents: r.n, Loads: r.Loads()}
}

// NumPlayers implements Game.
func (g *RoundGame) NumPlayers() int { return g.NAgents }

// NumActions implements Game.
func (g *RoundGame) NumActions(int) int { return len(g.Loads) }

// Cost implements Game.
func (g *RoundGame) Cost(player int, p Profile) float64 {
	a := p[player]
	contention := 0
	for _, c := range p {
		if c == a {
			contention++
		}
	}
	return float64(g.Loads[a]) + float64(contention)
}
