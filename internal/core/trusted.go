package core

import (
	"context"
	"fmt"

	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
)

// PureSession is the trusted driver for repeated plays under pure
// strategies (§3.3): commitments make choices private and simultaneous,
// the judicial service audits every play, and the executive applies the
// punishment scheme. The agreement steps are executed centrally — the
// distributed driver proves they can be Byzantine-agreed; this driver
// reuses the identical audit/punish logic at game-sweep speed.
//
// The play loop runs on per-session scratch buffers: an honest play of a
// compiled game allocates nothing (the alloc_test regression pins a
// hosted pure play at 0 allocs once its bounded history ring is warm).
// PureSession is also the pure kind's engine behind NewSession.
type PureSession struct {
	g      game.Game
	agents []*Agent
	scheme punish.Scheme
	seed   uint64

	round int
	prev  game.Profile // owned; re-filled in place every play

	// cumulative per-agent cost over plays where the agent was active.
	cumCost []float64

	// Per-play scratch, reused across rounds. Slices are sized to the
	// player count at construction; enc and the opening value buffers
	// amortize to steady state after the first play.
	scratch struct {
		commitments []commit.Digest
		openings    []commit.Opening
		revealed    []bool
		chosen      game.Profile
		outcome     game.Profile
		actions     game.Profile
		costs       []float64
		excluded    []int
		prevView    game.Profile
		enc         []byte
		verdict     audit.Verdict
	}
}

// RoundResult records one audited play. It is the uniform result type of
// the Session interface: every session kind (pure, mixed, RRA,
// distributed) reports completed plays in this shape; fields a kind
// cannot establish are left zero (Verdict details on distributed plays,
// Pulse on the trusted kinds).
//
// A result a session returns is a view of its history ring (empty slices
// nil): Outcome and Costs alias the play's row, the other slices its side
// slot. On a session with a bounded history (WithHistoryLimit) it stays
// valid until the play is evicted from the ring. Use Clone (or Results,
// which deep-copies) to retain one indefinitely. Unbounded sessions never
// evict, so their results never go stale.
type RoundResult struct {
	Round int
	// Outcome is the published PSP of the play (after executive
	// substitutions for convicted/unrevealed actions).
	Outcome game.Profile
	// Verdict is the judicial service's finding.
	Verdict audit.Verdict
	// Convicted lists the agents found guilty in this play's verdict.
	Convicted []int
	// Excluded lists agents barred from this play (punished earlier);
	// their actions were chosen by the executive on their behalf.
	Excluded []int
	// Costs[i] is agent i's cost in this play.
	Costs []float64
	// Pulse is the network pulse at which the play completed (distributed
	// driver only).
	Pulse int
}

// Clone returns a deep copy of the result sharing no memory with the
// session that produced it.
func (r RoundResult) Clone() RoundResult {
	return cloneResult(&r)
}

// NewPureSession builds a session over the elected game with one Agent per
// player; a nil agent is honest, as HonestPure's would be. scheme may be
// nil for punish-less operation (the "no authority" baseline in
// experiments). The game is accelerated into cost lookup tables when its
// profile space is small enough (game.Accelerate).
func NewPureSession(g game.Game, agents []*Agent, scheme punish.Scheme, seed uint64) (*PureSession, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil game", ErrConfig)
	}
	g = game.Accelerate(g)
	if len(agents) != g.NumPlayers() {
		return nil, fmt.Errorf("%w: %d agents for %d players", ErrConfig, len(agents), g.NumPlayers())
	}
	for i, a := range agents {
		if a != nil && a.Choose == nil {
			return nil, fmt.Errorf("%w: agent %d has no Choose", ErrConfig, i)
		}
	}
	n := g.NumPlayers()
	s := &PureSession{
		g:       g,
		agents:  agents,
		scheme:  scheme,
		seed:    seed,
		cumCost: make([]float64, n),
	}
	s.scratch.commitments = make([]commit.Digest, n)
	s.scratch.openings = make([]commit.Opening, n)
	s.scratch.revealed = make([]bool, n)
	s.scratch.chosen = make(game.Profile, n)
	s.scratch.outcome = make(game.Profile, n)
	s.scratch.actions = make(game.Profile, n)
	s.scratch.costs = make([]float64, n)
	return s, nil
}

// Round returns the number of completed plays.
func (s *PureSession) Round() int { return s.round }

// CumulativeCost returns agent i's total cost so far.
func (s *PureSession) CumulativeCost(i int) float64 { return s.cumCost[i] }

// CumulativePayoff returns agent i's total payoff (negated cost) so far —
// the Fig. 1 experiments report payoffs.
func (s *PureSession) CumulativePayoff(i int) float64 { return -s.cumCost[i] }

// Excluded reports whether agent i is currently excluded by the scheme.
func (s *PureSession) Excluded(i int) bool {
	return s.scheme != nil && s.scheme.Excluded(i)
}

// agentStreamState folds (seed, agent, round) into the commitment stream
// state without allocating; it equals deriveAgentSource's stream by
// construction (prng.Mix == prng.Derive fold).
func agentStreamState(seed uint64, agent, round int) uint64 {
	return prng.Mix(prng.Mix(prng.Mix(seed, 0xA6E27), uint64(agent)), uint64(round))
}

// PlayRound executes one full play of the protocol: choice → commitment →
// reveal → audit → punish → publish. All working state lives in the
// session scratch (see PureSession): the result's slices are valid until
// the next play.
func (s *PureSession) PlayRound() (RoundResult, error) {
	n := s.g.NumPlayers()
	ev := audit.PlayEvidence{
		Round:       s.round,
		PrevOutcome: s.prev,
		Commitments: s.scratch.commitments,
		Openings:    s.scratch.openings,
		Revealed:    s.scratch.revealed,
	}
	excluded := s.scratch.excluded[:0]

	// Choice + commitment phase. Excluded agents do not choose: the
	// executive restricts them to the authority-computed best response
	// (§3.4 "restricts the action of dishonest agents").
	chosen := s.scratch.chosen
	var src prng.Source
	for i, a := range s.agents {
		src.Seed(agentStreamState(s.seed, i, s.round))
		restricted := s.Excluded(i)
		if restricted {
			excluded = append(excluded, i)
		}
		if restricted || a == nil {
			// The executive commits on the restricted agent's behalf; a
			// nil (honest) agent's choice is the same best response.
			chosen[i] = s.executiveAction(i)
			s.scratch.enc = audit.AppendAction(s.scratch.enc[:0], chosen[i])
			ev.Commitments[i] = commit.CommitInto(&src, s.scratch.enc, &ev.Openings[i])
			ev.Revealed[i] = true
			continue
		}
		chosen[i] = a.Choose(s.round, s.prevFor())
		s.scratch.enc = audit.AppendAction(s.scratch.enc[:0], chosen[i])
		ev.Commitments[i] = commit.CommitInto(&src, s.scratch.enc, &ev.Openings[i])
		// Reveal phase (after all commitments are fixed): cheating hooks
		// apply here.
		if a.Withhold != nil && a.Withhold(s.round) {
			ev.Revealed[i] = false
			continue
		}
		if a.TamperOpening != nil {
			ev.Openings[i] = a.TamperOpening(s.round, ev.Openings[i].Clone())
		}
		ev.Revealed[i] = true
	}
	s.scratch.excluded = excluded

	// Judicial phase.
	s.scratch.verdict.Fouls = s.scratch.verdict.Fouls[:0]
	if err := audit.PerRoundInto(s.g, ev, s.scratch.actions, &s.scratch.verdict); err != nil {
		return RoundResult{}, fmt.Errorf("core: audit: %w", err)
	}
	verdict := s.scratch.verdict

	// Executive phase: punish the guilty, substitute actions that could
	// not be established, and publish the outcome.
	if s.scheme != nil {
		for _, f := range verdict.Fouls {
			if err := s.scheme.Punish(f.Agent, s.round, f.Reason.Severity()); err != nil {
				return RoundResult{}, fmt.Errorf("core: punish: %w", err)
			}
		}
	}
	outcome := s.scratch.outcome
	for i := 0; i < n; i++ {
		if s.scratch.actions[i] >= 0 {
			outcome[i] = s.scratch.actions[i]
		} else {
			outcome[i] = s.executiveAction(i)
		}
	}

	costs := s.scratch.costs
	for i := 0; i < n; i++ {
		costs[i] = s.g.Cost(i, outcome)
		s.cumCost[i] += costs[i]
	}

	res := RoundResult{
		Round:     s.round,
		Outcome:   outcome,
		Verdict:   verdict,
		Convicted: verdict.Guilty(),
		Excluded:  excluded,
		Costs:     costs,
	}
	s.prev = append(s.prev[:0], outcome...)
	s.round++
	return res, nil
}

// step is the pure engine's play (see engine).
func (s *PureSession) step(_ context.Context, res *RoundResult) error {
	r, err := s.PlayRound()
	res.Outcome, res.Verdict, res.Convicted, res.Costs = r.Outcome, r.Verdict, r.Convicted, r.Costs
	return err
}

func (s *PureSession) kindStats(*SessionStats) {}

func (s *PureSession) finish() (audit.Verdict, error) { return audit.Verdict{}, nil }

// appendState appends the scheme's ledger. The round is the snapshot's,
// the cumulative costs are its counters, and the previous outcome is the
// newest play of the history ring.
func (s *PureSession) appendState(dst []byte) ([]byte, bool) {
	return punish.AppendLedger(dst, s.scheme)
}

func (s *PureSession) parseState(r *stateReader, rounds int, prev game.Profile, cum []float64) {
	s.round = rounds
	copy(s.cumCost, cum)
	r.ledger(s.scheme)
	s.prev = clone(prev)
}

// prevFor returns the previous outcome to hand an agent's Choose hook: a
// scratch copy so one agent's mutation cannot leak into another agent's
// view. The slice is only valid during the call. The scratch is made on
// the first call: a session of honest (nil) agents never makes it.
func (s *PureSession) prevFor() game.Profile {
	if s.prev == nil {
		return nil
	}
	s.scratch.prevView = append(s.scratch.prevView[:0], s.prev...)
	return s.scratch.prevView
}

// executiveAction is the action the executive service substitutes for a
// restricted or unestablished agent: the best response to the previous
// outcome (a legitimate, honest action), or 0 on the first play.
func (s *PureSession) executiveAction(i int) int {
	if s.prev == nil {
		return 0
	}
	return game.BestResponse(s.g, i, s.prev)
}
