package core

import (
	"errors"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

// Common errors.
var (
	ErrConfig   = errors.New("core: invalid configuration")
	ErrNoAgents = errors.New("core: no agents")
	ErrClosed   = errors.New("core: session closed")
)

// Agent models one application-layer participant's *behaviour*. The
// authority drives the protocol; the agent only decides what to play and
// whether to cheat. The zero value plus a Choose function is an honest
// agent; the optional hooks inject the §5.1-style manipulations.
type Agent struct {
	// Choose returns the agent's action for the round given the agreed
	// previous outcome (nil on the first play). Returning an action
	// outside Πi models the Fig. 1 hidden-manipulation strategy. The prev
	// slice is only valid for the duration of the call (the session reuses
	// the buffer between agents); Clone it to retain it.
	Choose func(round int, prev game.Profile) int

	// TamperOpening, if non-nil, lets the agent replace its reveal after
	// the commitment was agreed (judicial must detect the mismatch).
	TamperOpening func(round int, op commit.Opening) commit.Opening

	// Withhold, if non-nil, makes the agent refuse to reveal this round.
	Withhold func(round int) bool
}

// HonestPure returns an honest agent for the elected game g playing id's
// best response to the previous outcome (the §3.2 notion of honesty).
// On the first play it plays action 0 (any legitimate action is honest).
func HonestPure(g game.Game, id int) *Agent {
	return &Agent{
		Choose: func(round int, prev game.Profile) int {
			if prev == nil {
				return 0
			}
			return game.BestResponse(g, id, prev)
		},
	}
}

// deriveAgentSource gives each (session seed, agent, round) its own
// deterministic randomness stream for commitments.
func deriveAgentSource(seed uint64, agent, round int) *prng.Source {
	return prng.Derive(seed, 0xA6E27, uint64(agent), uint64(round))
}
