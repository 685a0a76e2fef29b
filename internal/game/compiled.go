package game

import (
	"fmt"
	"math"
)

// This file implements the precomputed cost-lookup acceleration for the
// play hot path. A Compiled game materializes every player's cost function
// and best-response structure into dense tables indexed by a packed
// profile, so that the per-play judicial audit (legitimacy + best-response
// check) and the executive's action substitution become O(1) lookups with
// zero allocation. The paper assumes best responses are efficiently
// computable (§2); Compile makes them as cheap as the hardware allows for
// the finite table games every experiment uses.

// Responder is implemented by games that answer best-response queries
// without allocating. Package-level BestResponse/IsBestResponse dispatch to
// it, so wrapping a game with Compile transparently accelerates every
// audit, honest agent, and executive substitution built on it.
type Responder interface {
	Game
	// BestResponse returns player's cost-minimizing action against the
	// other entries of p (p[player] is ignored; ties break low).
	BestResponse(player int, p Profile) int
	// IsBestResponse reports whether action is within Eps of player's
	// minimum cost against p.
	IsBestResponse(player, action int, p Profile) bool
}

// CompileLimit is the default cap on table cells (profiles × players) a
// Compile call may materialize.
const CompileLimit = 1 << 20

// Compiled is a dense-table view of a finite game. It implements Responder
// (and Named, delegating to the base game when possible) and is safe for
// concurrent use after construction.
type Compiled struct {
	base    Game
	n       int
	actions []int
	stride  []int
	// costs[player][idx] is player's cost under the profile packed as idx.
	costs [][]float64
	// br[player][idx] is player's best response against the profile packed
	// as idx (the entry for player itself is ignored by construction: all
	// packings that differ only in player's own action share the answer,
	// computed per packing for O(1) lookup).
	br [][]int32
	// isbr[player][idx] reports whether the profile's own action for
	// player is within Eps of player's minimum against it.
	isbr [][]bool
}

var (
	_ Game      = (*Compiled)(nil)
	_ Responder = (*Compiled)(nil)
	_ Named     = (*Compiled)(nil)
)

// Compile precomputes cost and best-response tables for g. It returns
// ErrTooLarge when the tables would exceed limit cells (profiles ×
// players); pass 0 for the default CompileLimit.
func Compile(g Game, limit int) (*Compiled, error) {
	if limit <= 0 {
		limit = CompileLimit
	}
	n := g.NumPlayers()
	if n == 0 {
		return nil, fmt.Errorf("%w: zero players", ErrProfileShape)
	}
	space, err := ProfileSpaceSize(g, limit)
	if err != nil {
		return nil, err
	}
	if space > limit/n {
		return nil, ErrTooLarge
	}
	c := &Compiled{
		base:    g,
		n:       n,
		actions: make([]int, n),
		stride:  make([]int, n),
		costs:   make([][]float64, n),
		br:      make([][]int32, n),
		isbr:    make([][]bool, n),
	}
	stride := 1
	for i := n - 1; i >= 0; i-- {
		c.actions[i] = g.NumActions(i)
		c.stride[i] = stride
		stride *= c.actions[i]
	}
	for i := 0; i < n; i++ {
		c.costs[i] = make([]float64, space)
		c.br[i] = make([]int32, space)
		c.isbr[i] = make([]bool, space)
	}
	ForEachProfile(g, func(p Profile) bool {
		idx, _ := c.index(p) // enumeration only yields in-shape profiles
		for i := 0; i < n; i++ {
			c.costs[i][idx] = g.Cost(i, p)
		}
		return true
	})
	// Best-response structure per player: for every packing, scan the
	// player's own axis in the cost table, replicating BestResponse's
	// tie-breaking (lowest index, strict Eps improvement) exactly.
	for i := 0; i < n; i++ {
		for idx := 0; idx < space; idx++ {
			own := (idx / c.stride[i]) % c.actions[i]
			base := idx - own*c.stride[i]
			best, bestCost := 0, math.Inf(1)
			minCost := math.Inf(1)
			for a := 0; a < c.actions[i]; a++ {
				cost := c.costs[i][base+a*c.stride[i]]
				if cost < bestCost-Eps {
					best, bestCost = a, cost
				}
				if cost < minCost {
					minCost = cost
				}
			}
			c.br[i][idx] = int32(best)
			// IsBestResponse semantics: no action beats the profile's own
			// action by more than Eps.
			c.isbr[i][idx] = c.costs[i][idx] <= minCost+Eps
		}
	}
	return c, nil
}

// Accelerate returns a Responder view of g: g itself when it already
// answers best-response queries, a Compiled table when the profile space
// fits the default limit, and g unchanged otherwise. Session constructors
// call it so every play audits against lookup tables; a spec-built game
// arrives already compiled (one Compiled per canonical spec, shared by
// every session of that spec) and is returned unchanged.
func Accelerate(g Game) Game {
	if g == nil {
		return nil
	}
	if _, ok := g.(Responder); ok {
		return g
	}
	if c, err := Compile(g, 0); err == nil {
		return c
	}
	return g
}

// index packs a profile into its table offset. ok is false when the
// profile is out of shape (e.g. a corrupted previous outcome under the §4
// transient-fault adversary) — callers then fall back to the base game,
// preserving the uncompiled behaviour bit for bit.
func (c *Compiled) index(p Profile) (int, bool) {
	if len(p) != c.n {
		return 0, false
	}
	idx := 0
	for i, a := range p {
		if a < 0 || a >= c.actions[i] {
			return 0, false
		}
		idx += a * c.stride[i]
	}
	return idx, true
}

// raw is the base game stripped of any Responder acceleration, so
// fallback paths replicate the naive scans exactly.
type raw struct{ g Game }

func (r raw) NumPlayers() int                { return r.g.NumPlayers() }
func (r raw) NumActions(p int) int           { return r.g.NumActions(p) }
func (r raw) Cost(p int, pr Profile) float64 { return r.g.Cost(p, pr) }

// Base returns the game the tables were compiled from.
func (c *Compiled) Base() Game { return c.base }

// NumPlayers implements Game.
func (c *Compiled) NumPlayers() int { return c.n }

// NumActions implements Game.
func (c *Compiled) NumActions(player int) int { return c.actions[player] }

// Cost implements Game as a table lookup.
func (c *Compiled) Cost(player int, p Profile) float64 {
	if idx, ok := c.index(p); ok {
		return c.costs[player][idx]
	}
	return c.base.Cost(player, p)
}

// BestResponse implements Responder as a table lookup.
func (c *Compiled) BestResponse(player int, p Profile) int {
	if idx, ok := c.index(p); ok {
		return int(c.br[player][idx])
	}
	return BestResponse(raw{c.base}, player, p)
}

// IsBestResponse implements Responder as a table lookup.
func (c *Compiled) IsBestResponse(player, action int, p Profile) bool {
	idx, ok := c.index(p)
	if !ok || action < 0 || action >= c.actions[player] {
		return IsBestResponse(raw{c.base}, player, action, p)
	}
	own := (idx / c.stride[player]) % c.actions[player]
	return c.isbr[player][idx+(action-own)*c.stride[player]]
}

// Name implements Named, delegating to the base game.
func (c *Compiled) Name() string {
	if nm, ok := c.base.(Named); ok {
		return nm.Name()
	}
	return "compiled"
}

// ActionName implements Named, delegating to the base game.
func (c *Compiled) ActionName(player, action int) string {
	if nm, ok := c.base.(Named); ok {
		return nm.ActionName(player, action)
	}
	return fmt.Sprintf("a%d", action)
}
