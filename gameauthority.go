// Package gameauthority is a from-scratch Go implementation of the game
// authority middleware of Dolev, Schiller, Spirakis and Tsigas — "Game
// authority for robust and scalable distributed selfish-computer systems"
// (PODC 2007 brief announcement; full version in Theoretical Computer
// Science 411 (2010) 2459–2466).
//
// The middleware secures the execution of any complete-information game
// among selfish (and partly Byzantine) computers through three services:
// a legislative service that lets the honest majority elect the rules of
// the game, a judicial service that audits every play (commitments make
// choices private and simultaneous; revealed actions are checked for
// legitimacy, best-response honesty, and — for mixed strategies — fidelity
// to a committed pseudo-random stream), and an executive service that
// publishes outcomes and punishes convicted agents.
//
// The package offers three levels of entry:
//
//   - Game analysis: strategic-form games, best responses, pure and mixed
//     Nash equilibria, and the cost metrics the paper studies (price of
//     anarchy/stability/malice, multi-round anarchy cost).
//   - Authority sessions: New builds a uniform Session — trusted
//     pure-strategy or mixed-strategy supervised play at simulation speed,
//     the §6 repeated resource allocation harness, or the full distributed
//     protocol over a synchronous Byzantine network (self-stabilizing clock
//     synchronization scheduling interactive-consistency agreements for
//     every phase of every play) — selected by functional options and
//     observable through an event stream (Subscribe, Events).
//   - Multi-session hosting: an Authority hosts many independent sessions
//     keyed by ID behind a sync-safe registry; NewServer exposes it as an
//     HTTP/JSON API (see cmd/gameauthd -serve).
//
// All randomness is seeded and replayable; see DESIGN.md for the system
// inventory and the API surface, and `go run ./cmd/experiments` (indexed
// in DESIGN.md §2) for the reproduced results.
package gameauthority

import (
	"io"

	"gameauthority/internal/audit"
	"gameauthority/internal/core"
	"gameauthority/internal/deviate"
	"gameauthority/internal/game"
	"gameauthority/internal/obs"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
	"gameauthority/internal/stats"
	"gameauthority/internal/voting"
)

// --- Observability ----------------------------------------------------------

// TraceRingDefault is the span capacity EnableTracing uses for
// ringSize <= 0.
const TraceRingDefault = obs.DefaultTraceRing

// EnableTracing arms the process-wide play tracer: every layer's spans
// (HTTP/WS decode, shard dispatch, driver phases, per-pulse protocol
// steps, WAL and commit-epoch writes) start recording into a fixed ring
// of ringSize completed spans (<= 0 means TraceRingDefault). sample
// admits one play in sample (<= 1 traces every play). Tracing is off by
// default and costs one atomic load per span site while disabled.
func EnableTracing(ringSize, sample int) { obs.DefaultTracer.Enable(ringSize, sample) }

// DisableTracing stops span recording; the captured ring remains
// available to WriteTrace.
func DisableTracing() { obs.DefaultTracer.Disable() }

// TracingEnabled reports whether the play tracer is recording.
func TracingEnabled() bool { return obs.DefaultTracer.Enabled() }

// TracedPlays reports completed root (play-level) spans since
// EnableTracing — the progress signal for bounded captures.
func TracedPlays() uint64 { return obs.DefaultTracer.RootCount() }

// TracedSpans reports the spans currently held in the capture ring.
// Drives of the protocol below the Session layer (the gameauthd trace
// CLI) record pulse and phase spans with no play root, so this — not
// TracedPlays — is their capture-size signal.
func TracedSpans() int { return obs.DefaultTracer.Len() }

// WriteTrace dumps the captured span ring as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto.
func WriteTrace(w io.Writer) error { return obs.DefaultTracer.WriteJSON(w) }

// WriteObsMetrics renders every registered series of the process's one
// metrics registry — histograms, counters and gauges — in Prometheus text
// format: exactly the body GET /metrics serves.
func WriteObsMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// --- Strategic-form games ----------------------------------------------------

// Game is a finite strategic-form game with cost functions that agents
// minimize (the paper's §2 convention).
type Game = game.Game

// Profile is a pure strategy profile: Profile[i] is player i's action.
type Profile = game.Profile

// Mixed is a mixed strategy (a probability distribution over actions).
type Mixed = game.Mixed

// MixedProfile assigns a mixed strategy to every player.
type MixedProfile = game.MixedProfile

// Bimatrix is a two-player game stored as dense cost matrices.
type Bimatrix = game.Bimatrix

// NewBimatrix constructs a two-player game from cost matrices.
func NewBimatrix(name string, costA, costB [][]float64) (*Bimatrix, error) {
	return game.NewBimatrix(name, costA, costB)
}

// FromPayoffs constructs a two-player game from payoff matrices (negating
// into cost form). The paper's Fig. 1 is stated in payoffs.
func FromPayoffs(name string, payA, payB [][]float64) (*Bimatrix, error) {
	return game.FromPayoffs(name, payA, payB)
}

// MatchingPennies returns the classical matching pennies game (§5).
func MatchingPennies() *Bimatrix { return game.MatchingPennies() }

// MatchingPenniesManipulated returns the paper's Fig. 1 game: matching
// pennies extended with agent B's hidden "Manipulate" strategy.
func MatchingPenniesManipulated() *Bimatrix { return game.MatchingPenniesManipulated() }

// ManipulateAction is the index of the hidden manipulation strategy in
// MatchingPenniesManipulated.
const ManipulateAction = game.ManipulateAction

// PrisonersDilemma returns the classical prisoner's dilemma in cost form.
func PrisonersDilemma() *Bimatrix { return game.PrisonersDilemma() }

// CoordinationGame returns a 2×2 coordination game with equilibria of
// different social cost (PoA vs PoS demonstrations).
func CoordinationGame() *Bimatrix { return game.CoordinationGame() }

// RRA is the repeated resource allocation game of §6.
type RRA = game.RRA

// NewRRA creates an RRA instance with n agents and b resources.
func NewRRA(n, b int) (*RRA, error) { return game.NewRRA(n, b) }

// OptMaxLoad returns OPT(k) = ⌈nk/b⌉, the centralistic optimum of the RRA
// game after k rounds.
func OptMaxLoad(n, b, k int) int64 { return game.OptMaxLoad(n, b, k) }

// TableGame is a general n-player strategic-form game with dense cost
// tables.
type TableGame = game.TableGame

// NewTableGame allocates an n-player game with the given action-count
// shape; fill costs with SetCost or Fill.
func NewTableGame(name string, shape []int) (*TableGame, error) {
	return game.NewTableGame(name, shape)
}

// MinorityGame returns the classical n-player minority game (odd n).
func MinorityGame(n int) (*TableGame, error) { return game.MinorityGame(n) }

// PublicGoods returns an n-player public-goods game (free riding dominates;
// contribution is socially optimal).
func PublicGoods(n int, benefit float64) (*TableGame, error) {
	return game.PublicGoods(n, benefit)
}

// --- Scenario catalog ---------------------------------------------------------

// CongestionGame returns a symmetric singleton congestion game: n players
// pick among len(rates) facilities with linear load-dependent latency.
// PNEs are the rate-weighted load-balanced assignments.
func CongestionGame(n int, rates []float64) (*TableGame, error) {
	return game.CongestionGame(n, rates)
}

// BraessRouting returns the n-player discrete Braess routing game
// (Up/Down/Zig over the shortcut network); all-Zig is a PNE and PoA = 4/3
// at even n — the canonical price-of-anarchy scenario.
func BraessRouting(n int) (*TableGame, error) { return game.BraessRouting(n) }

// PublicGoodsPunish returns the public-goods game with a fine charged to
// free riders; fine > 1 − benefit/n makes all-contribute the unique PNE.
func PublicGoodsPunish(n int, benefit, fine float64) (*TableGame, error) {
	return game.PublicGoodsPunish(n, benefit, fine)
}

// FirstPriceAuction returns the first-price sealed-bid auction among
// len(values) bidders on a discrete bid grid, in strategic form.
func FirstPriceAuction(values []float64, bids int) (*TableGame, error) {
	return game.FirstPriceAuction(values, bids)
}

// SecondPriceAuction returns the Vickrey auction on the same grid;
// truthful bidding is weakly dominant, so the truthful profile is a PNE.
func SecondPriceAuction(values []float64, bids int) (*TableGame, error) {
	return game.SecondPriceAuction(values, bids)
}

// PrisonersDilemmaParams returns a parameterized prisoner's dilemma in
// cost form with the dilemma ordering t < r < p < s; the unique PNE is
// mutual defection.
func PrisonersDilemmaParams(t, r, p, s float64) (*Bimatrix, error) {
	return game.PrisonersDilemmaParams(t, r, p, s)
}

// CoordinationN returns an n-player, k-action consensus game whose PNEs
// are exactly the k consensus profiles (PoA = k, PoS = 1).
func CoordinationN(n, k int) (*TableGame, error) { return game.CoordinationN(n, k) }

// CatalogEntry describes one scenario family of the catalog: registry
// name, sizing rule, builder, and known equilibrium structure.
type CatalogEntry = game.CatalogEntry

// Catalog returns the scenario catalog with default parameterizations —
// the families cmd/loadgen mixes and the HTTP API resolves by name.
func Catalog() []CatalogEntry { return game.Catalog() }

// ScenarioByName resolves a catalog entry by its registry name.
func ScenarioByName(name string) (CatalogEntry, bool) { return game.ByName(name) }

// Inoculation is the virus inoculation game of Moscibroda et al. [21], the
// vehicle for the paper's price-of-malice results.
type Inoculation = game.Inoculation

// NewInoculation builds a w×h grid inoculation game with inoculation cost c
// and infection loss l.
func NewInoculation(w, h int, c, l float64) (*Inoculation, error) {
	return game.NewInoculation(w, h, c, l)
}

// --- Game analysis -------------------------------------------------------------

// BestResponse returns player i's cost-minimizing action against profile.
func BestResponse(g Game, player int, profile Profile) int {
	return game.BestResponse(g, player, profile)
}

// IsBestResponse reports whether action is a best response — the judicial
// service's §3.2 foul-play test for pure strategies.
func IsBestResponse(g Game, player, action int, profile Profile) bool {
	return game.IsBestResponse(g, player, action, profile)
}

// IsPureNash reports whether profile is a pure Nash equilibrium of g.
func IsPureNash(g Game, p Profile) bool { return game.IsPureNash(g, p) }

// BestResponseDynamics runs round-robin best-response updates from start
// for at most maxSteps player-updates, returning the final profile and
// whether it is a PNE. Congestion-style games converge; matching pennies
// cycles.
func BestResponseDynamics(g Game, start Profile, maxSteps int) (Profile, bool) {
	return game.BestResponseDynamics(g, start, maxSteps)
}

// PureNashEquilibria enumerates the game's pure Nash equilibria.
func PureNashEquilibria(g Game, limit int) ([]Profile, error) {
	return game.PureNashEquilibria(g, limit)
}

// MixedNashEquilibria2P computes mixed equilibria of a two-player game by
// support enumeration.
func MixedNashEquilibria2P(g Game, tol float64) []MixedProfile {
	return game.MixedNashEquilibria2P(g, tol)
}

// ExpectedCost returns a player's expected cost under a mixed profile.
func ExpectedCost(g Game, player int, mp MixedProfile) float64 {
	return game.ExpectedCost(g, player, mp)
}

// SocialCost sums the costs of the given players (nil = all).
func SocialCost(g Game, p Profile, honest []int) float64 {
	return game.SocialCost(g, p, honest)
}

// Uniform returns the uniform mixed strategy over k actions.
func Uniform(k int) Mixed { return game.Uniform(k) }

// --- Cost metrics ---------------------------------------------------------------

// PriceOfAnarchy returns worst-PNE social cost over the optimum [18,17].
func PriceOfAnarchy(g Game, limit int) (float64, error) {
	return stats.PriceOfAnarchy(g, limit)
}

// PriceOfStability returns best-PNE social cost over the optimum [3].
func PriceOfStability(g Game, limit int) (float64, error) {
	return stats.PriceOfStability(g, limit)
}

// PriceOfMalice returns the [21] ratio between the honest agents' social
// cost with and without malicious participants.
func PriceOfMalice(costWith, costWithout float64) (float64, error) {
	return stats.PriceOfMalice(costWith, costWithout)
}

// MultiRoundAnarchyCost returns the paper's R(k) criterion for repeated
// games (§6).
func MultiRoundAnarchyCost(expectedMax float64, opt int64) (float64, error) {
	return stats.MultiRoundAnarchyCost(expectedMax, opt)
}

// Theorem5Bound returns the paper's bound 1 + 2b/k on R(k).
func Theorem5Bound(b, k int) float64 { return stats.Theorem5Bound(b, k) }

// --- Punishment schemes (executive service, §3.4) --------------------------------

// PunishmentScheme is the executive service's sanction policy. It holds
// each agent's standing, not a history of its sanctions: a session's
// fouls are in its play results (RoundResult.Verdict).
type PunishmentScheme = punish.Scheme

// NewDisconnectScheme bars an agent once its offences exhaust the strike
// budget (≤ 0 means one strike). The paper's default for Byzantine agents.
func NewDisconnectScheme(n int, budget float64) PunishmentScheme {
	return punish.NewDisconnect(n, budget)
}

// NewReputationScheme decays reputation per offence and excludes below the
// threshold; honest rounds regenerate.
func NewReputationScheme(n int, decay, threshold, regen float64) PunishmentScheme {
	return punish.NewReputation(n, decay, threshold, regen)
}

// NewDepositScheme fines a real-money escrow per offence and excludes when
// it is exhausted.
func NewDepositScheme(n int, escrow, fine float64) PunishmentScheme {
	return punish.NewDeposit(n, escrow, fine)
}

// --- Authority sessions -----------------------------------------------------------

// Agent is an application-layer participant's behaviour in a pure-strategy
// session: what to play, and (optionally) how to cheat.
type Agent = core.Agent

// HonestPure returns an honest best-response agent for the elected game.
func HonestPure(g Game, id int) *Agent { return core.HonestPure(g, id) }

// PureSession is the trusted driver for repeated pure-strategy supervised
// play (§3.3); AsPure recovers it from a Session built by New.
type PureSession = core.PureSession

// RoundResult records one audited play of a PureSession.
type RoundResult = core.RoundResult

// MixedAgent is a participant's behaviour in a mixed-strategy session (§5).
type MixedAgent = core.MixedAgent

// MixedSession is the trusted driver for repeated mixed-strategy play with
// committed-randomness auditing (§5.3); AsMixed recovers it from a Session
// built by New.
type MixedSession = core.MixedSession

// Audit modes for WithAudit.
const (
	// AuditOff disables the authority (price-of-malice baselines).
	AuditOff = core.AuditOff
	// AuditPerRound audits every play (the paper's base design).
	AuditPerRound = core.AuditPerRound
	// AuditBatched commits one seed per epoch and audits at epoch end
	// (the §5.3 efficiency extension).
	AuditBatched = core.AuditBatched
	// AuditSampled spot-checks each round with probability SampleProb
	// (the §1.1 "auditing, rather than constant monitoring" extension).
	AuditSampled = core.AuditSampled
	// AuditStatistical screens action frequencies against declared
	// strategies without any commitments (the §5.2 detection problem).
	AuditStatistical = core.AuditStatistical
)

// SupervisedRRA runs the §6 repeated resource allocation game under the
// authority; AsRRA recovers it from a Session built by New with WithRRA,
// for load measurements.
type SupervisedRRA = core.RRASupervised

// HogChooser returns the malicious RRA behaviour that always loads the
// most-loaded resource.
func HogChooser() func(agent int, loads []int64) int { return game.HogChooser() }

// FixedChooser returns the malicious RRA behaviour that camps one resource.
func FixedChooser(a int) func(agent int, loads []int64) int { return game.FixedChooser(a) }

// --- Deviation catalog (profit verification) -----------------------------------------

// DeviantStrategy is a player-level selfish strategy pluggable into any
// driver via WithDeviant; see internal/deviate for the catalog and the
// profit auditor that measures whether a deviation ever beats honesty.
type DeviantStrategy = core.Deviant

// AlwaysDefect camps the highest-index action every round, ignoring the
// best-response duty.
func AlwaysDefect() DeviantStrategy { return deviate.AlwaysDefect() }

// BestResponseLiar best-responds to a one-step-lookahead prediction of
// the other players instead of to the previous outcome (the §3.2 duty) —
// a deviation that can genuinely profit without an authority.
func BestResponseLiar() DeviantStrategy { return deviate.BestResponseLiar() }

// CommitmentCheat reveals a different value than it committed to — the
// equivocation the Blum commitments exist to catch.
func CommitmentCheat() DeviantStrategy { return deviate.CommitmentCheat() }

// DistributionSkewer plays honestly except with the given probability,
// when it swaps in its myopic favourite — the probe for the sampled and
// statistical audit disciplines. Out-of-range probabilities default to
// 0.5.
func DistributionSkewer(prob float64) DeviantStrategy { return deviate.DistributionSkewer(prob) }

// Freerider never reveals, free-riding on everyone else's auditability.
func Freerider() DeviantStrategy { return deviate.Freerider() }

// DeviantStrategies returns the full deviation catalog with default
// parameterizations (the strategies cmd/loadgen -deviants rotates through).
func DeviantStrategies() []DeviantStrategy { return deviate.Registry() }

// DeviantByName resolves a catalog strategy by its registry name
// ("always-defect", "best-response-liar", "commitment-cheat",
// "distribution-skewer", "freerider").
func DeviantByName(name string) (DeviantStrategy, bool) { return deviate.ByName(name) }

// --- Distributed authority ----------------------------------------------------------

// DistributedSession is the full middleware over a synchronous Byzantine
// network: self-stabilizing clock + interactive consistency per phase.
// AsDistributed recovers it from a Session built by New with
// WithDistributed, for fault injection and consistency checks. Each
// processor keeps its newest completed play in full and a fixed ring of
// its last 64 plays' pulses and 64-bit fingerprints, which a transient
// fault empties: ConsistentResults compares at most that many, and
// Procs[i].ResultCount counts the plays since the processor's last fault.
// The plays themselves are the Session's own history (Results), bounded
// by WithHistoryLimit as for every driver.
type DistributedSession = core.DistSession

// Adversary rewrites a Byzantine processor's outgoing traffic.
type Adversary = sim.Adversary

// SilentAdversary drops all outgoing traffic (a crashed processor).
func SilentAdversary() Adversary { return sim.SilentAdversary() }

// DropAdversary drops each outgoing message independently with
// probability p on a seeded stream.
func DropAdversary(seed uint64, p float64) Adversary { return sim.DropAdversary(seed, p) }

// ReplayAdversary sends the previous pulse's outbox instead of the
// current one.
func ReplayAdversary() Adversary { return sim.ReplayAdversary() }

// PulsesPerPlay returns how many network pulses one play takes in the
// distributed driver.
func PulsesPerPlay(f int) int { return core.PulsesPerPlay(f) }

// --- Legislative service --------------------------------------------------------------

// Candidate pairs a game with a ballot description.
type Candidate = core.Candidate

// Voter supplies an agent's preferences over candidates.
type Voter = core.Voter

// ElectionOutcome reports a legislative decision.
type ElectionOutcome = core.ElectionOutcome

// NaiveElection is the unprotected baseline (§3.1 threat model): open
// sequential ballots, manipulators react to earlier votes.
func NaiveElection(candidates []Candidate, voters []Voter) (ElectionOutcome, error) {
	return core.NaiveElection(candidates, voters)
}

// RobustElection is the authority's commit-reveal election.
func RobustElection(candidates []Candidate, voters []Voter, seed uint64) (ElectionOutcome, error) {
	return core.RobustElection(candidates, voters, seed)
}

// ReelectionConfig configures the §3.1 repeated-reelection extension:
// every legislative term the agents re-elect the game under their current
// (possibly drifted) preferences.
type ReelectionConfig = core.ReelectionConfig

// TermResult records one legislative term's election and play cost.
type TermResult = core.TermResult

// ReelectionSeries runs one robust election per term with drifting
// preferences.
func ReelectionSeries(cfg ReelectionConfig, terms int) ([]ElectionOutcome, error) {
	return core.ReelectionSeries(cfg, terms)
}

// PlayTerms runs the full legislate-then-play loop across terms.
func PlayTerms(cfg ReelectionConfig, terms int) ([]TermResult, error) {
	return core.PlayTerms(cfg, terms)
}

// VotingRule selects a tally method for standalone tallies.
type VotingRule = voting.Rule

// Supported voting rules.
const (
	Plurality = voting.Plurality
	Borda     = voting.Borda
	Approval  = voting.Approval
	Condorcet = voting.Condorcet
)

// --- Judicial primitives ----------------------------------------------------------------

// FoulReason classifies a detected foul play.
type FoulReason = audit.Reason

// Foul reasons the judicial service reports.
const (
	FoulIllegitimateAction     = audit.ReasonIllegitimateAction
	FoulCommitMismatch         = audit.ReasonCommitMismatch
	FoulMissingReveal          = audit.ReasonMissingReveal
	FoulNotBestResponse        = audit.ReasonNotBestResponse
	FoulSeedMismatch           = audit.ReasonSeedMismatch
	FoulSuspiciousDistribution = audit.ReasonSuspiciousDistribution
)

// Verdict is the judicial service's finding for one audited play.
type Verdict = audit.Verdict

// FrequencyCheck is the §5.2 statistical screen: it scores how far an
// action histogram deviates from a declared mixed strategy.
func FrequencyCheck(strategy Mixed, actions []int, threshold float64) (statistic float64, suspicious bool, err error) {
	return audit.FrequencyCheck(strategy, actions, threshold)
}
