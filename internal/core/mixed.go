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

// AuditMode selects the judicial service's auditing discipline (§5.3).
type AuditMode int

// Auditing disciplines.
const (
	// AuditOff disables auditing entirely — the "no game authority"
	// baseline used to measure the price of malice.
	AuditOff AuditMode = iota + 1
	// AuditPerRound audits every play with its own seed commitment
	// (the paper's base design).
	AuditPerRound
	// AuditBatched commits one seed per epoch of EpochLen rounds and
	// audits at epoch end (the §5.3 efficiency extension).
	AuditBatched
)

// String implements fmt.Stringer.
func (m AuditMode) String() string {
	switch m {
	case AuditOff:
		return "off"
	case AuditPerRound:
		return "per-round"
	case AuditBatched:
		return "batched"
	default:
		if name, ok := modeString(m); ok {
			return name
		}
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MixedAgent models one participant in a mixed-strategy session. The zero
// value is fully honest: it plays exactly the PRG-derived sample of the
// declared strategy.
type MixedAgent struct {
	// Override, if non-nil, replaces the honest PRG-derived action with
	// the agent's own choice (e.g. the Fig. 1 "Manipulate" strategy).
	Override func(round, honestAction int) int
	// TamperSeedOpening, if non-nil, replaces the agent's seed reveal.
	TamperSeedOpening func(round int, op commit.Opening) commit.Opening
	// Withhold, if non-nil, makes the agent refuse to reveal its seed.
	Withhold func(round int) bool
}

// MixedConfig configures a mixed-strategy session.
type MixedConfig struct {
	// Elected is the game whose rules the authority enforces (legitimacy,
	// strategies). Required.
	Elected game.Game
	// Actual is the true cost structure, which may secretly extend the
	// elected game (hidden manipulative strategies, Fig. 1). Nil means
	// the elected game is the whole truth.
	Actual game.Game
	// Strategies returns the common-knowledge equilibrium strategies for
	// the round (they may depend on the previous outcome). Required.
	Strategies func(round int, prev game.Profile) game.MixedProfile
	// Agents holds one behaviour per player; nil entries mean honest.
	Agents []*MixedAgent
	// Scheme is the executive's punishment scheme (nil with AuditOff).
	Scheme punish.Scheme
	// Mode selects the auditing discipline; EpochLen is the batch size
	// for AuditBatched (≥ 1).
	Mode     AuditMode
	EpochLen int
	// SampleProb is the per-round spot-check probability for AuditSampled
	// (0 < p ≤ 1).
	SampleProb float64
	// Window and ChiThreshold configure AuditStatistical: frequencies are
	// screened every Window rounds against the chi-square-style threshold.
	Window       int
	ChiThreshold float64
	// Seed drives all commitment nonces and honest sampling.
	Seed uint64
}

// CostStats counts the protocol overhead the E-AUD experiment reports.
type CostStats struct {
	Commitments int64 // seed commitments created
	Reveals     int64 // seed openings published
	Agreements  int64 // Byzantine agreement (IC) invocations
	// MessageEstimate approximates network messages had the agreements
	// run on the distributed driver (see ICMessageEstimate).
	MessageEstimate int64
}

// ICMessageEstimate approximates the message count of one interactive
// consistency execution over n processors with f faults: n parallel EIG
// instances, each pulse every processor sends n point-to-point messages per
// instance, over f+3 pulses.
func ICMessageEstimate(n, f int) int64 {
	return int64(n) * int64(n) * int64(n) * int64(f+3)
}

// roundSeedState reproduces prng.Derive(seed, 0x5EED, agent, round).Uint64()
// on a caller-owned Source, avoiding the per-round heap allocation.
func roundSeedState(seed uint64, agent, round int, src *prng.Source) uint64 {
	src.Seed(prng.Mix(prng.Mix(prng.Mix(seed, 0x5EED), uint64(agent)), uint64(round)))
	return src.Uint64()
}

// MixedSession is the trusted driver for repeated mixed-strategy plays,
// and the mixed kind's engine behind NewSession.
type MixedSession struct {
	cfg    MixedConfig
	actual game.Game
	n      int
	f      int // fault bound used for message estimates

	round int
	prev  game.Profile

	cumCost []float64
	stats   CostStats

	// epoch state (AuditBatched)
	epochStart  int
	epochSeeds  []uint64
	epochCommit []commit.Digest
	epochOps    []commit.Opening
	epochHist   []game.Profile
	epochStrats [][]game.Mixed

	// window accumulates per-agent action histories for AuditStatistical.
	window [][]int

	// pending holds the fouls of the verdicts issued since the engine step
	// last reported them; prevCost is the step's per-play copy of cumCost.
	pending  []audit.Foul
	prevCost []float64

	// Per-round scratch for the per-round audit discipline, reused so the
	// steady-state play keeps a fixed allocation budget.
	scratch struct {
		roundSeeds   []uint64
		roundCommits []commit.Digest
		roundOps     []commit.Opening
		seedOps      []commit.Opening
		revealed     []bool
		enc          []byte
	}
}

// NewMixedSession validates the configuration and builds the session.
func NewMixedSession(cfg MixedConfig) (*MixedSession, error) {
	if cfg.Elected == nil {
		return nil, fmt.Errorf("%w: nil elected game", ErrConfig)
	}
	if cfg.Strategies == nil {
		return nil, fmt.Errorf("%w: nil strategies", ErrConfig)
	}
	n := cfg.Elected.NumPlayers()
	if len(cfg.Agents) != n {
		return nil, fmt.Errorf("%w: %d agents for %d players", ErrConfig, len(cfg.Agents), n)
	}
	switch cfg.Mode {
	case AuditOff, AuditPerRound:
	case AuditBatched:
		if cfg.EpochLen < 1 {
			return nil, fmt.Errorf("%w: batched mode needs EpochLen ≥ 1", ErrConfig)
		}
	case AuditSampled:
		if cfg.SampleProb <= 0 || cfg.SampleProb > 1 {
			return nil, fmt.Errorf("%w: sampled mode needs 0 < SampleProb ≤ 1", ErrConfig)
		}
	case AuditStatistical:
		if cfg.Window < 1 || cfg.ChiThreshold <= 0 {
			return nil, fmt.Errorf("%w: statistical mode needs Window ≥ 1 and ChiThreshold > 0", ErrConfig)
		}
	default:
		return nil, fmt.Errorf("%w: unknown audit mode %d", ErrConfig, cfg.Mode)
	}
	if cfg.Mode != AuditOff && cfg.Scheme == nil {
		return nil, fmt.Errorf("%w: auditing requires a punishment scheme", ErrConfig)
	}
	cfg.Elected = game.Accelerate(cfg.Elected)
	actual := game.Accelerate(cfg.Actual)
	if actual == nil {
		actual = cfg.Elected
	}
	if actual.NumPlayers() != n {
		return nil, fmt.Errorf("%w: actual game has %d players, elected %d", ErrConfig, actual.NumPlayers(), n)
	}
	s := &MixedSession{
		cfg:      cfg,
		actual:   actual,
		n:        n,
		f:        (n - 1) / 3,
		cumCost:  make([]float64, n),
		prevCost: make([]float64, n),
	}
	if cfg.Mode == AuditStatistical {
		s.window = make([][]int, n)
	}
	if cfg.Mode == AuditPerRound {
		s.scratch.roundSeeds = make([]uint64, n)
		s.scratch.roundCommits = make([]commit.Digest, n)
		s.scratch.roundOps = make([]commit.Opening, n)
		s.scratch.seedOps = make([]commit.Opening, n)
		s.scratch.revealed = make([]bool, n)
	}
	return s, nil
}

// Round returns the number of completed plays.
func (s *MixedSession) Round() int { return s.round }

// Stats returns the accumulated protocol overhead counters.
func (s *MixedSession) Stats() CostStats { return s.stats }

// CumulativeCost returns agent i's total actual cost so far.
func (s *MixedSession) CumulativeCost(i int) float64 { return s.cumCost[i] }

// CumulativePayoff returns agent i's total payoff (negated cost).
func (s *MixedSession) CumulativePayoff(i int) float64 { return -s.cumCost[i] }

// Excluded reports whether agent i is currently excluded.
func (s *MixedSession) Excluded(i int) bool {
	return s.cfg.Scheme != nil && s.cfg.Scheme.Excluded(i)
}

// PlayRound executes one play. The flow per §3.3/§5.3: (1) the outcome of
// the previous play is agreed; (2) agents commit to their randomness; (3)
// actions are played and published; (4) the judicial service audits (per
// round, or at epoch end in batched mode) and the executive punishes.
func (s *MixedSession) PlayRound() (game.Profile, error) {
	strategies := s.cfg.Strategies(s.round, s.prev.Clone())
	if len(strategies) != s.n {
		return nil, fmt.Errorf("%w: strategy arity %d", ErrConfig, len(strategies))
	}

	// The extension modes have their own flows (see mixed_modes.go).
	switch s.cfg.Mode {
	case AuditSampled:
		return s.playSampled(strategies)
	case AuditStatistical:
		return s.playStatistical(strategies)
	}

	// Outcome agreement for the previous play (1 IC when audits are on).
	if s.cfg.Mode != AuditOff && s.round > 0 {
		s.addAgreement()
	}

	// Epoch bootstrap: in batched mode the first round of each epoch
	// fixes the per-agent epoch seeds and their commitments.
	if s.cfg.Mode == AuditBatched && (s.round-s.epochStart >= s.cfg.EpochLen || s.epochSeeds == nil) {
		if s.epochSeeds != nil {
			if err := s.closeEpoch(); err != nil {
				return nil, err
			}
		}
		s.openEpoch()
	}

	// Seed commitments for per-round mode (session scratch, reused).
	var roundSeeds []uint64
	var roundCommits []commit.Digest
	var roundOps []commit.Opening
	if s.cfg.Mode == AuditPerRound {
		roundSeeds = s.scratch.roundSeeds
		roundCommits = s.scratch.roundCommits
		roundOps = s.scratch.roundOps
		var src prng.Source
		for i := 0; i < s.n; i++ {
			roundSeeds[i] = roundSeedState(s.cfg.Seed, i, s.round, &src)
			src.Seed(agentStreamState(s.cfg.Seed, i, s.round))
			s.scratch.enc = audit.AppendSeed(s.scratch.enc[:0], roundSeeds[i])
			roundCommits[i] = commit.CommitInto(&src, s.scratch.enc, &roundOps[i])
			s.stats.Commitments++
		}
		s.addAgreement() // agree on the commitment set
	}

	// Action selection.
	outcome := make(game.Profile, s.n)
	var seedSrc prng.Source
	for i := 0; i < s.n; i++ {
		var seed uint64
		switch s.cfg.Mode {
		case AuditPerRound:
			seed = roundSeeds[i]
		case AuditBatched:
			seed = s.epochSeeds[i]
		default:
			seed = roundSeedState(s.cfg.Seed, i, s.round, &seedSrc)
		}
		honest, err := audit.ExpectedAction(strategies[i], seed, i, s.round)
		if err != nil {
			return nil, fmt.Errorf("core: sample agent %d: %w", i, err)
		}
		action := honest
		agent := s.cfg.Agents[i]
		if s.Excluded(i) {
			// Executive restriction: the authority samples on the
			// excluded agent's behalf with its own stream.
			seedSrc.Seed(prng.Mix(prng.Mix(s.cfg.Seed, 0xE8EC), uint64(i)))
			execSeed := seedSrc.Uint64()
			action, err = audit.ExpectedAction(strategies[i], execSeed, i, s.round)
			if err != nil {
				return nil, fmt.Errorf("core: executive sample %d: %w", i, err)
			}
		} else if agent != nil && agent.Override != nil {
			action = agent.Override(s.round, honest)
		}
		outcome[i] = action
	}

	// Publish the outcome (1 IC when audits are on).
	if s.cfg.Mode != AuditOff {
		s.addAgreement()
	}

	// Costs accrue on the *actual* game — manipulation damage lands
	// before the audit can react, exactly as in §5.1.
	for i := 0; i < s.n; i++ {
		s.cumCost[i] += s.actual.Cost(i, outcome)
	}

	// Judicial phase.
	switch s.cfg.Mode {
	case AuditPerRound:
		for i := range s.scratch.seedOps {
			s.scratch.seedOps[i] = commit.Opening{}
			s.scratch.revealed[i] = false
		}
		ev := audit.MixedEvidence{
			Round:           s.round,
			Strategies:      strategies,
			SeedCommitments: roundCommits,
			SeedOpenings:    s.scratch.seedOps,
			Revealed:        s.scratch.revealed,
			Actions:         outcome,
		}
		for i := 0; i < s.n; i++ {
			agent := s.cfg.Agents[i]
			if !s.Excluded(i) && agent != nil && agent.Withhold != nil && agent.Withhold(s.round) {
				continue
			}
			op := roundOps[i]
			if !s.Excluded(i) && agent != nil && agent.TamperSeedOpening != nil {
				op = agent.TamperSeedOpening(s.round, op.Clone())
			}
			ev.SeedOpenings[i] = op
			ev.Revealed[i] = true
			s.stats.Reveals++
		}
		s.addAgreement() // agree on the reveal set
		verdict, err := audit.MixedPerRound(s.cfg.Elected, ev)
		if err != nil {
			return nil, fmt.Errorf("core: audit: %w", err)
		}
		s.applyVerdict(verdict)

	case AuditBatched:
		s.epochHist = append(s.epochHist, outcome.Clone())
		s.epochStrats = append(s.epochStrats, strategies)
	}

	s.prev = outcome
	s.round++
	return outcome, nil
}

// openEpoch starts a new batched-audit epoch.
func (s *MixedSession) openEpoch() {
	s.epochStart = s.round
	s.epochSeeds = make([]uint64, s.n)
	s.epochCommit = make([]commit.Digest, s.n)
	s.epochOps = make([]commit.Opening, s.n)
	s.epochHist = nil
	s.epochStrats = nil
	for i := 0; i < s.n; i++ {
		s.epochSeeds[i] = prng.Derive(s.cfg.Seed, 0xE60C, uint64(i), uint64(s.epochStart)).Uint64()
		src := deriveAgentSource(s.cfg.Seed, i, s.epochStart)
		s.epochCommit[i], s.epochOps[i] = commit.Commit(src, audit.EncodeSeed(s.epochSeeds[i]))
		s.stats.Commitments++
	}
	s.addAgreement() // agree on the epoch commitment set
}

// CloseEpoch audits the open epoch (batched mode). No-op otherwise.
func (s *MixedSession) CloseEpoch() error {
	if s.cfg.Mode != AuditBatched || s.epochSeeds == nil || len(s.epochHist) == 0 {
		return nil
	}
	return s.closeEpoch()
}

func (s *MixedSession) closeEpoch() error {
	ev := audit.EpochEvidence{
		StartRound:      s.epochStart,
		Strategies:      s.epochStrats,
		History:         s.epochHist,
		SeedCommitments: s.epochCommit,
		SeedOpenings:    make([]commit.Opening, s.n),
		Revealed:        make([]bool, s.n),
	}
	for i := 0; i < s.n; i++ {
		agent := s.cfg.Agents[i]
		if !s.Excluded(i) && agent != nil && agent.Withhold != nil && agent.Withhold(s.epochStart) {
			continue
		}
		op := s.epochOps[i]
		if !s.Excluded(i) && agent != nil && agent.TamperSeedOpening != nil {
			op = agent.TamperSeedOpening(s.epochStart, op.Clone())
		}
		ev.SeedOpenings[i] = op
		ev.Revealed[i] = true
		s.stats.Reveals++
	}
	s.addAgreement() // agree on the reveal set
	verdict, err := audit.Batched(s.cfg.Elected, ev)
	if err != nil {
		return fmt.Errorf("core: batched audit: %w", err)
	}
	s.applyVerdict(verdict)
	s.epochSeeds = nil
	return nil
}

// step is the mixed engine's play (see engine). A play's cost is the
// difference of cumulative costs, so the costs a session reports sum to
// its cumulative cost exactly as the engine accrued it. In batched mode
// an epoch's verdict lands on the play that closed the epoch.
func (s *MixedSession) step(_ context.Context, res *RoundResult) error {
	copy(s.prevCost, s.cumCost)
	outcome, err := s.PlayRound()
	if err != nil {
		return err
	}
	res.Outcome = outcome
	res.Costs = res.Costs[:0]
	for i, c := range s.cumCost {
		res.Costs = append(res.Costs, c-s.prevCost[i])
	}
	res.Verdict.Fouls = s.appendNewFouls(res.Verdict.Fouls[:0])
	res.Convicted = res.Verdict.AppendGuilty(res.Convicted[:0])
	return nil
}

// appendNewFouls appends the fouls of the verdicts issued since its last
// call, and forgets them.
func (s *MixedSession) appendNewFouls(dst []audit.Foul) []audit.Foul {
	dst = append(dst, s.pending...)
	clear(s.pending)
	s.pending = s.pending[:0]
	return dst
}

func (s *MixedSession) kindStats(st *SessionStats) { st.Protocol = s.stats }

// finish audits the trailing partial epoch (batched mode).
func (s *MixedSession) finish() (audit.Verdict, error) {
	if err := s.CloseEpoch(); err != nil {
		return audit.Verdict{}, err
	}
	return audit.Verdict{Fouls: s.appendNewFouls(nil)}, nil
}

// applyVerdict holds the verdict's fouls for the step to report, agrees
// on the foul set, and punishes.
func (s *MixedSession) applyVerdict(v audit.Verdict) {
	s.pending = append(s.pending, v.Fouls...)
	s.addAgreement() // agree on the foul set
	if s.cfg.Scheme == nil {
		return
	}
	for _, f := range v.Fouls {
		// Agents already excluded are the executive's wards; their
		// substituted actions cannot foul, but guard anyway.
		if s.cfg.Scheme.Excluded(f.Agent) {
			continue
		}
		_ = s.cfg.Scheme.Punish(f.Agent, s.round, f.Reason.Severity())
	}
}

func (s *MixedSession) addAgreement() {
	s.stats.Agreements++
	s.stats.MessageEstimate += ICMessageEstimate(s.n, s.f)
}
