package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
)

// RRASupervised runs the §6 repeated resource allocation game under the
// game authority: honest agents sample the symmetric water-filling
// equilibrium from committed seeds; Byzantine agents may play anything, but
// the seed audit exposes every off-stream action and the executive then
// restricts them. This is the harness behind Theorem 5's experiments
// (E-T5): supervision keeps the multi-round anarchy cost at 1 + O(b/k).
// It is also the RRA kind's engine behind NewSession.
type RRASupervised struct {
	rra    *game.RRA
	scheme punish.Scheme
	seed   uint64
	// byzChoose[i], if set, overrides agent i's choice (e.g. the hog).
	byzChoose map[int]func(agent int, loads []int64) int
	// deviantChoose[i], if set, overrides agent i's choice with a
	// player-level selfish strategy that also sees the round index and the
	// honest committed-stream sample (see Deviant.RRAChooser).
	deviantChoose map[int]func(round int, loads []int64, honest int) int
	supervise     bool

	// fouls are the most recent play's fouls, lastChoices its published
	// profile: what step reports.
	fouls       []audit.Foul
	lastChoices game.Profile
	// costs[i] is agent i's cost in the most recent play: the post-step
	// load of its chosen resource, exactly the §6 strategic-form cost
	// (pre-step load plus this round's contention). cumCost sums them.
	costs, cumCost []float64

	// Per-round scratch, reused so steady-state plays keep a fixed
	// allocation budget.
	scratch struct {
		seeds      []uint64
		digests    []commit.Digest
		openings   []commit.Opening
		expected   []int
		strategies []game.Mixed
		revealed   []bool
		enc        []byte
	}
}

// NewRRASupervised builds the harness. scheme nil + supervise false is the
// unsupervised baseline; supervise true requires a scheme.
func NewRRASupervised(n, b int, seed uint64, scheme punish.Scheme, supervise bool) (*RRASupervised, error) {
	if supervise && scheme == nil {
		return nil, fmt.Errorf("%w: supervision requires a punishment scheme", ErrConfig)
	}
	rra, err := game.NewRRA(n, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	h := &RRASupervised{
		rra:           rra,
		scheme:        scheme,
		seed:          seed,
		byzChoose:     make(map[int]func(int, []int64) int),
		deviantChoose: make(map[int]func(int, []int64, int) int),
		supervise:     supervise,
		costs:         make([]float64, n),
		cumCost:       make([]float64, n),
	}
	h.scratch.seeds = make([]uint64, n)
	h.scratch.digests = make([]commit.Digest, n)
	h.scratch.openings = make([]commit.Opening, n)
	h.scratch.expected = make([]int, n)
	h.scratch.strategies = make([]game.Mixed, n)
	h.scratch.revealed = make([]bool, n)
	return h, nil
}

// SetByzantine installs a malicious choice function for the agent.
func (h *RRASupervised) SetByzantine(agent int, choose func(agent int, loads []int64) int) {
	h.byzChoose[agent] = choose
}

// SetDeviant installs a player-level selfish strategy for the agent: the
// chooser sees the round, the pre-step loads, and the honest
// committed-stream sample the judicial service will audit against.
// A deviant takes precedence over a SetByzantine chooser for the same
// agent.
func (h *RRASupervised) SetDeviant(agent int, choose func(round int, loads []int64, honest int) int) {
	h.deviantChoose[agent] = choose
}

// RRA exposes the underlying game state for measurements.
func (h *RRASupervised) RRA() *game.RRA { return h.rra }

// Excluded reports whether agent i has been excluded.
func (h *RRASupervised) Excluded(i int) bool {
	return h.scheme != nil && h.scheme.Excluded(i)
}

// roundSeed derives agent i's committed seed for the given round without
// heap-allocating the derivation stream.
func (h *RRASupervised) roundSeed(agent, round int) uint64 {
	var src prng.Source
	src.Seed(prng.Mix(prng.Mix(prng.Mix(h.seed, 0x22A0), uint64(agent)), uint64(round)))
	return src.Uint64()
}

// ExpectedChoice returns the committed-stream sample agent i must play in
// the upcoming round — the action the executive substitutes for excluded
// agents, and the reference the judicial service audits against.
func (h *RRASupervised) ExpectedChoice(agent int) (int, error) {
	round := h.rra.Rounds()
	strategy := h.rra.EquilibriumStrategy()
	return audit.ExpectedAction(strategy, h.roundSeed(agent, round), agent, round)
}

// PlayRound executes one play: honest agents draw their committed PRG
// sample of the equilibrium strategy; Byzantine agents act out; the
// authority (when supervising) audits the round's seeds and punishes.
func (h *RRASupervised) PlayRound() error {
	n := h.rra.N()
	round := h.rra.Rounds()
	clear(h.fouls)
	h.fouls = h.fouls[:0]
	roundView := h.rra.RoundView() // strategic form of this play (pre-step loads)
	strategy := h.rra.EquilibriumStrategy()

	// Per-round seeds and Blum commitments (§5.3 per-round discipline),
	// built on the session scratch.
	seeds := h.scratch.seeds
	digests := h.scratch.digests
	openings := h.scratch.openings
	expected := h.scratch.expected
	var src prng.Source
	for i := 0; i < n; i++ {
		seeds[i] = h.roundSeed(i, round)
		src.Seed(agentStreamState(h.seed, i, round))
		h.scratch.enc = audit.AppendSeed(h.scratch.enc[:0], seeds[i])
		digests[i] = commit.CommitInto(&src, h.scratch.enc, &openings[i])
		a, err := audit.ExpectedAction(strategy, seeds[i], i, round)
		if err != nil {
			return fmt.Errorf("core: rra sample agent %d: %w", i, err)
		}
		expected[i] = a
	}

	choices, err := h.rra.Step(func(agent int, loads []int64) int {
		if h.Excluded(agent) {
			// Executive restriction: authority plays the honest
			// sample on the excluded agent's behalf.
			return expected[agent]
		}
		if choose, dev := h.deviantChoose[agent]; dev {
			return choose(round, loads, expected[agent])
		}
		if choose, bad := h.byzChoose[agent]; bad {
			return choose(agent, loads)
		}
		return expected[agent]
	})
	if err != nil {
		return fmt.Errorf("core: rra step: %w", err)
	}
	h.lastChoices = choices
	for i, choice := range choices {
		h.costs[i] = float64(h.rra.Load(choice))
		h.cumCost[i] += h.costs[i]
	}

	if !h.supervise {
		return nil
	}
	// Judicial: the real seed audit over the round's strategic form —
	// every published action must open against its committed stream
	// (§5.3). Excluded agents are the executive's wards and always pass.
	strategies := h.scratch.strategies
	revealed := h.scratch.revealed
	for i := 0; i < n; i++ {
		strategies[i] = strategy
		revealed[i] = true
	}
	verdict, err := audit.MixedPerRound(roundView, audit.MixedEvidence{
		Round:           round,
		Strategies:      strategies,
		SeedCommitments: digests,
		SeedOpenings:    openings,
		Revealed:        revealed,
		Actions:         choices,
	})
	if err != nil {
		return fmt.Errorf("core: rra audit: %w", err)
	}
	for _, foul := range verdict.Fouls {
		if h.Excluded(foul.Agent) {
			continue
		}
		h.fouls = append(h.fouls, foul)
		_ = h.scheme.Punish(foul.Agent, round, foul.Reason.Severity())
	}
	return nil
}

// CumulativeCost returns agent i's total cost so far.
func (h *RRASupervised) CumulativeCost(i int) float64 { return h.cumCost[i] }

// step is the RRA engine's play (see engine).
func (h *RRASupervised) step(_ context.Context, res *RoundResult) error {
	if err := h.PlayRound(); err != nil {
		return err
	}
	res.Outcome = h.lastChoices
	res.Verdict.Fouls = append(res.Verdict.Fouls[:0], h.fouls...)
	res.Convicted = res.Verdict.AppendGuilty(res.Convicted[:0])
	res.Costs = append(res.Costs[:0], h.costs...)
	return nil
}

func (h *RRASupervised) kindStats(st *SessionStats) { st.MaxLoad = h.rra.MaxLoad() }

func (h *RRASupervised) finish() (audit.Verdict, error) { return audit.Verdict{}, nil }

// appendState appends game.RRA's loads and the scheme's ledger; the
// round count and the cumulative costs are the snapshot's.
func (h *RRASupervised) appendState(dst []byte) ([]byte, bool) {
	for _, l := range h.rra.Loads() {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	return punish.AppendLedger(dst, h.scheme)
}

func (h *RRASupervised) parseState(r *stateReader, rounds int, _ game.Profile, cum []float64) {
	loads := make([]int64, h.rra.B())
	for a := range loads {
		loads[a] = int64(r.int())
	}
	if err := h.rra.SetState(rounds, loads); err != nil {
		r.fail("%v", err)
	}
	copy(h.cumCost, cum)
	r.ledger(h.scheme)
}
