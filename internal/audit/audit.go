package audit

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

// Reason classifies a foul play.
type Reason int

// Foul-play reasons, in increasing order of severity.
const (
	// ReasonIllegitimateAction: the action is outside the agent's action
	// set Πi (§3.2 requirement 1).
	ReasonIllegitimateAction Reason = iota + 1
	// ReasonCommitMismatch: the reveal does not open the agreed
	// commitment (§3.2 requirement 2 enforcement).
	ReasonCommitMismatch
	// ReasonMissingReveal: the agent never revealed its committed action.
	ReasonMissingReveal
	// ReasonNotBestResponse: a pure-strategy action that is not a best
	// response to the previous outcome (§3.2 requirement 3).
	ReasonNotBestResponse
	// ReasonSeedMismatch: the action does not match the committed
	// pseudo-random stream for the declared mixed strategy (§5.3).
	ReasonSeedMismatch
	// ReasonSuspiciousDistribution: empirical action frequencies deviate
	// from the declared mixed strategy beyond the configured threshold
	// (§5.2's detection problem, used when no seeds are available).
	ReasonSuspiciousDistribution
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonIllegitimateAction:
		return "illegitimate-action"
	case ReasonCommitMismatch:
		return "commit-mismatch"
	case ReasonMissingReveal:
		return "missing-reveal"
	case ReasonNotBestResponse:
		return "not-best-response"
	case ReasonSeedMismatch:
		return "seed-mismatch"
	case ReasonSuspiciousDistribution:
		return "suspicious-distribution"
	default:
		return "reason(" + strconv.Itoa(int(r)) + ")"
	}
}

// Severity maps a reason to a punishment weight in [0, 1]; protocol
// violations (lies) are maximal, strategic deviations lighter.
func (r Reason) Severity() float64 {
	switch r {
	case ReasonCommitMismatch, ReasonMissingReveal, ReasonSeedMismatch:
		return 1.0
	case ReasonIllegitimateAction:
		return 1.0
	case ReasonNotBestResponse:
		return 0.5
	case ReasonSuspiciousDistribution:
		return 0.25
	default:
		return 0
	}
}

// Foul is one detected violation.
type Foul struct {
	Agent  int
	Reason Reason
	Detail string
}

// Verdict is the judicial service's output for one audited play (or epoch).
type Verdict struct {
	Fouls []Foul
}

// Guilty returns the distinct agent ids with at least one foul, in
// ascending order (nil for an honest play, without allocating).
func (v Verdict) Guilty() []int { return v.AppendGuilty(nil) }

// AppendGuilty appends Guilty's ids to dst, ascending and distinct, reusing
// dst's capacity: the form for per-session scratch buffers.
func (v Verdict) AppendGuilty(dst []int) []int {
	base := len(dst)
	for _, f := range v.Fouls {
		i, found := slices.BinarySearch(dst[base:], f.Agent)
		if !found {
			dst = slices.Insert(dst, base+i, f.Agent)
		}
	}
	return dst
}

// FoulsFor returns the fouls charged to the given agent, in issue order.
func (v Verdict) FoulsFor(agent int) []Foul {
	var out []Foul
	for _, f := range v.Fouls {
		if f.Agent == agent {
			out = append(out, f)
		}
	}
	return out
}

// TotalSeverity sums the punishment weight (Reason.Severity) of the
// agent's fouls in this verdict — the sanction the executive service
// applies when it adopts the verdict verbatim.
func (v Verdict) TotalSeverity(agent int) float64 {
	var total float64
	for _, f := range v.Fouls {
		if f.Agent == agent {
			total += f.Reason.Severity()
		}
	}
	return total
}

// ErrBadEvidence reports malformed evidence passed to an auditor.
var ErrBadEvidence = errors.New("audit: malformed evidence")

// EncodeAction canonically serializes an action for commitment.
func EncodeAction(action int) []byte {
	return strconv.AppendInt(nil, int64(action), 10)
}

// AppendAction appends EncodeAction's serialization to dst, reusing its
// capacity — the allocation-free path for per-session scratch buffers.
func AppendAction(dst []byte, action int) []byte {
	return strconv.AppendInt(dst, int64(action), 10)
}

// DecodeAction parses EncodeAction's output. It parses the bytes directly
// (no string conversion) so honest-path audits do not allocate.
func DecodeAction(data []byte) (int, error) {
	neg := false
	i := 0
	if len(data) > 0 && (data[0] == '-' || data[0] == '+') {
		neg = data[0] == '-'
		i = 1
	}
	if i == len(data) {
		return 0, fmt.Errorf("%w: empty action encoding", ErrBadEvidence)
	}
	n := 0
	for ; i < len(data); i++ {
		c := data[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("%w: bad action byte %q", ErrBadEvidence, c)
		}
		if n > (1<<31)/10 { // reject absurd encodings before they overflow
			return 0, fmt.Errorf("%w: action encoding overflows", ErrBadEvidence)
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// PlayEvidence is the per-round evidence the executive service hands the
// judicial service after the reveal phase (all fields Byzantine-agreed).
type PlayEvidence struct {
	// Round index of the play.
	Round int
	// PrevOutcome is the agreed outcome of the previous play; nil for the
	// first play (no best-response requirement then).
	PrevOutcome game.Profile
	// Commitments[i] is agent i's agreed commitment digest.
	Commitments []commit.Digest
	// Openings[i] is agent i's reveal; Revealed[i] false means silence.
	Openings []commit.Opening
	Revealed []bool
}

// PerRound audits a single play of the elected game g (pure strategies,
// §3.3): commitment match, legitimacy, and best response to PrevOutcome.
// It returns the verdict and the decoded action profile (with -1 for agents
// whose action could not be established).
func PerRound(g game.Game, ev PlayEvidence) (Verdict, game.Profile, error) {
	var verdict Verdict
	actions := make(game.Profile, g.NumPlayers())
	if err := PerRoundInto(g, ev, actions, &verdict); err != nil {
		return verdict, nil, err
	}
	return verdict, actions, nil
}

// PerRoundInto is PerRound with caller-owned buffers for the play hot path:
// the decoded profile is written into actions (length NumPlayers) and fouls
// are appended to verdict.Fouls (reset it before the call). Honest plays
// complete without allocating.
func PerRoundInto(g game.Game, ev PlayEvidence, actions game.Profile, verdict *Verdict) error {
	n := g.NumPlayers()
	if len(ev.Commitments) != n || len(ev.Openings) != n || len(ev.Revealed) != n {
		return fmt.Errorf("%w: evidence arity mismatch", ErrBadEvidence)
	}
	if len(actions) != n {
		return fmt.Errorf("%w: action buffer arity %d, want %d", ErrBadEvidence, len(actions), n)
	}
	for i := range actions {
		actions[i] = -1
	}
	for i := 0; i < n; i++ {
		if !ev.Revealed[i] {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonMissingReveal,
				Detail: fmt.Sprintf("round %d: no reveal", ev.Round)})
			continue
		}
		if err := commit.Verify(ev.Commitments[i], ev.Openings[i]); err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("round %d: %v", ev.Round, err)})
			continue
		}
		a, err := DecodeAction(ev.Openings[i].Value)
		if err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("round %d: undecodable action", ev.Round)})
			continue
		}
		if a < 0 || a >= g.NumActions(i) {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonIllegitimateAction,
				Detail: fmt.Sprintf("round %d: action %d outside Π(%d)", ev.Round, a, i)})
			continue
		}
		actions[i] = a
	}
	// Best-response audit needs the previous outcome (§3.2: "Action πi of
	// agent i is foul if πi is not i's best response to π−i, where
	// (π′i, π−i) is the PSP of the previous play").
	if ev.PrevOutcome != nil {
		if err := game.ValidateProfile(g, ev.PrevOutcome); err != nil {
			return fmt.Errorf("%w: bad previous outcome: %v", ErrBadEvidence, err)
		}
		for i := 0; i < n; i++ {
			if actions[i] < 0 {
				continue // already fouled above
			}
			if !game.IsBestResponse(g, i, actions[i], ev.PrevOutcome) {
				verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonNotBestResponse,
					Detail: fmt.Sprintf("round %d: action %d is not a best response", ev.Round, actions[i])})
			}
		}
	}
	return nil
}

// --- Mixed strategies (§5) -------------------------------------------------

// MixedEvidence extends per-round evidence for mixed-strategy audits: each
// agent's declared equilibrium strategy and the per-round seed opening.
type MixedEvidence struct {
	Round int
	// Strategies[i] is the mixed strategy agent i is expected to sample
	// (the equilibrium of the elected game — common knowledge).
	Strategies []game.Mixed
	// SeedCommitments[i], SeedOpenings[i]: Blum commit/reveal of the
	// 8-byte big-endian seed used for this round's private choice.
	SeedCommitments []commit.Digest
	SeedOpenings    []commit.Opening
	Revealed        []bool
	// Actions[i] is the action agent i actually played (published by the
	// executive service).
	Actions game.Profile
}

// EncodeSeed canonically serializes a PRG seed for commitment.
func EncodeSeed(seed uint64) []byte {
	return strconv.AppendUint(nil, seed, 16)
}

// AppendSeed appends EncodeSeed's serialization to dst, reusing its
// capacity — the allocation-free path for per-session scratch buffers.
func AppendSeed(dst []byte, seed uint64) []byte {
	return strconv.AppendUint(dst, seed, 16)
}

// DecodeSeed parses EncodeSeed's output. Like DecodeAction it parses the
// bytes directly so honest-path audits do not allocate.
func DecodeSeed(data []byte) (uint64, error) {
	if len(data) == 0 || len(data) > 16 {
		return 0, fmt.Errorf("%w: seed encoding length %d", ErrBadEvidence, len(data))
	}
	var s uint64
	for _, c := range data {
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, fmt.Errorf("%w: bad seed byte %q", ErrBadEvidence, c)
		}
		s = s<<4 | d
	}
	return s, nil
}

// ExpectedAction reproduces the action an honest agent must play in the
// given round from its seed and declared strategy: one Categorical draw on
// the stream Derive(seed, agent, round). This is the exactness §5.3 buys.
func ExpectedAction(strategy game.Mixed, seed uint64, agent, round int) (int, error) {
	sampler, err := strategy.Sampler()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadEvidence, err)
	}
	src := prng.Derive(seed, uint64(agent), uint64(round))
	return sampler.Sample(src), nil
}

// MixedPerRound audits one play under mixed strategies: seed commitment
// must open, and the played action must equal the PRG-derived sample of the
// declared strategy.
func MixedPerRound(g game.Game, ev MixedEvidence) (Verdict, error) {
	n := g.NumPlayers()
	if len(ev.Strategies) != n || len(ev.SeedCommitments) != n ||
		len(ev.SeedOpenings) != n || len(ev.Revealed) != n || len(ev.Actions) != n {
		return Verdict{}, fmt.Errorf("%w: evidence arity mismatch", ErrBadEvidence)
	}
	var verdict Verdict
	for i := 0; i < n; i++ {
		a := ev.Actions[i]
		if a < 0 || a >= g.NumActions(i) {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonIllegitimateAction,
				Detail: fmt.Sprintf("round %d: action %d outside Π(%d)", ev.Round, a, i)})
			continue
		}
		if !ev.Revealed[i] {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonMissingReveal,
				Detail: fmt.Sprintf("round %d: seed not revealed", ev.Round)})
			continue
		}
		if err := commit.Verify(ev.SeedCommitments[i], ev.SeedOpenings[i]); err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("round %d: seed commitment: %v", ev.Round, err)})
			continue
		}
		seed, err := DecodeSeed(ev.SeedOpenings[i].Value)
		if err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("round %d: undecodable seed", ev.Round)})
			continue
		}
		want, err := ExpectedAction(ev.Strategies[i], seed, i, ev.Round)
		if err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonSeedMismatch,
				Detail: fmt.Sprintf("round %d: strategy unusable: %v", ev.Round, err)})
			continue
		}
		if a != want {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonSeedMismatch,
				Detail: fmt.Sprintf("round %d: played %d, PRG stream requires %d", ev.Round, a, want)})
		}
	}
	return verdict, nil
}

// --- Batched (epoch) auditing, §5.3 extension -------------------------------

// EpochEvidence is the evidence for a T-round epoch under seed-commit
// auditing: one seed commitment per agent for the whole epoch, the action
// history, and the per-round strategies (which evolve with the outcomes).
type EpochEvidence struct {
	// StartRound is the first round of the epoch.
	StartRound int
	// Strategies[r][i] is agent i's expected strategy in epoch round r.
	Strategies [][]game.Mixed
	// History[r][i] is the action agent i played in epoch round r.
	History []game.Profile
	// SeedCommitments/SeedOpenings as in MixedEvidence, one per agent for
	// the entire epoch.
	SeedCommitments []commit.Digest
	SeedOpenings    []commit.Opening
	Revealed        []bool
}

// Batched audits an entire epoch at once. Cost model (reported by the
// E-AUD experiment): one commitment + one reveal + one agreement per agent
// per epoch, instead of per round.
func Batched(g game.Game, ev EpochEvidence) (Verdict, error) {
	n := g.NumPlayers()
	rounds := len(ev.History)
	if len(ev.Strategies) != rounds || len(ev.SeedCommitments) != n ||
		len(ev.SeedOpenings) != n || len(ev.Revealed) != n {
		return Verdict{}, fmt.Errorf("%w: evidence arity mismatch", ErrBadEvidence)
	}
	var verdict Verdict
	seeds := make([]uint64, n)
	valid := make([]bool, n)
	for i := 0; i < n; i++ {
		if !ev.Revealed[i] {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonMissingReveal,
				Detail: fmt.Sprintf("epoch@%d: seed not revealed", ev.StartRound)})
			continue
		}
		if err := commit.Verify(ev.SeedCommitments[i], ev.SeedOpenings[i]); err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("epoch@%d: %v", ev.StartRound, err)})
			continue
		}
		s, err := DecodeSeed(ev.SeedOpenings[i].Value)
		if err != nil {
			verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonCommitMismatch,
				Detail: fmt.Sprintf("epoch@%d: undecodable seed", ev.StartRound)})
			continue
		}
		seeds[i], valid[i] = s, true
	}
	for r := 0; r < rounds; r++ {
		if len(ev.History[r]) != n || len(ev.Strategies[r]) != n {
			return verdict, fmt.Errorf("%w: round %d arity mismatch", ErrBadEvidence, r)
		}
		round := ev.StartRound + r
		for i := 0; i < n; i++ {
			if !valid[i] {
				continue
			}
			a := ev.History[r][i]
			if a < 0 || a >= g.NumActions(i) {
				verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonIllegitimateAction,
					Detail: fmt.Sprintf("round %d: action %d outside Π(%d)", round, a, i)})
				continue
			}
			want, err := ExpectedAction(ev.Strategies[r][i], seeds[i], i, round)
			if err != nil {
				verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonSeedMismatch,
					Detail: fmt.Sprintf("round %d: strategy unusable: %v", round, err)})
				continue
			}
			if a != want {
				verdict.Fouls = append(verdict.Fouls, Foul{Agent: i, Reason: ReasonSeedMismatch,
					Detail: fmt.Sprintf("round %d: played %d, PRG stream requires %d", round, a, want)})
			}
		}
	}
	return verdict, nil
}

// --- Statistical screening (§5.2) -------------------------------------------

// FrequencyCheck computes a chi-square-style deviation statistic between an
// agent's observed action counts and its declared mixed strategy, flagging
// distributions whose statistic exceeds threshold. It is the screening tool
// for §5.2's "challenge ... verifying that a sequence of random choices
// follows a distribution" when seed commitments are unavailable; unlike the
// seed audit it is probabilistic, so it reports a score, not proof.
func FrequencyCheck(strategy game.Mixed, actions []int, threshold float64) (statistic float64, suspicious bool, err error) {
	k := len(strategy)
	if k == 0 {
		return 0, false, fmt.Errorf("%w: empty strategy", ErrBadEvidence)
	}
	counts := make([]float64, k)
	for _, a := range actions {
		if a < 0 || a >= k {
			return 0, false, fmt.Errorf("%w: action %d out of range", ErrBadEvidence, a)
		}
		counts[a]++
	}
	total := float64(len(actions))
	if total == 0 {
		return 0, false, nil
	}
	for a := 0; a < k; a++ {
		expected := strategy[a] * total
		if expected < 1e-12 {
			if counts[a] > 0 {
				// Played an action declared to have probability 0:
				// infinitely suspicious; report a huge statistic.
				return 1e18, true, nil
			}
			continue
		}
		d := counts[a] - expected
		statistic += d * d / expected
	}
	return statistic, statistic > threshold, nil
}
