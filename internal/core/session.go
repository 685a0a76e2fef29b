package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
)

// ErrPulseBudget is returned by the distributed driver when a play did not
// complete within the configured pulse budget (e.g. while the
// self-stabilizing clock is still re-converging after a transient fault).
var ErrPulseBudget = errors.New("core: pulse budget exhausted before the play completed")

// SessionKind identifies which driver a Session runs on.
type SessionKind int

// Session kinds, inferred from the configuration: distributed if
// DistProcs is set, RRA if RRAAgents is set, mixed if Strategies is set,
// pure otherwise.
const (
	kindUnset SessionKind = iota
	KindPure
	KindMixed
	KindRRA
	KindDistributed
)

// String implements fmt.Stringer.
func (k SessionKind) String() string {
	switch k {
	case KindPure:
		return "pure"
	case KindMixed:
		return "mixed"
	case KindRRA:
		return "rra"
	case KindDistributed:
		return "distributed"
	default:
		return "unknown"
	}
}

// Session is the uniform authority-session interface implemented by all
// four drivers (pure, mixed, RRA, distributed). Implementations are safe
// for concurrent use; plays are serialized internally.
type Session interface {
	// Play executes one audited play of the §3.3 protocol.
	Play(ctx context.Context) (RoundResult, error)
	// PlayN executes n audited plays under a single lock acquisition and
	// returns the last result. State evolution is exactly that of n
	// sequential Play calls at the same point — the batch is purely a
	// locking/journaling optimization. sink, when non-nil, observes each
	// completed round before the next play begins; results passed to it
	// may alias per-play scratch, so it must hash or copy what it keeps.
	// On a mid-batch error the completed prefix stands (and was already
	// seen by sink); the last completed result is returned with the error.
	PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error)
	// Run executes the given number of plays and returns the last result.
	Run(ctx context.Context, rounds int) (RoundResult, error)
	// Results returns deep copies of the retained plays, oldest first.
	// Sessions bounded with a history limit retain only the most recent
	// plays; Stats().Rounds still counts every play.
	Results() []RoundResult
	// ResultAt returns the play with absolute round index round without
	// copying the whole history, or false when the round was evicted from
	// a bounded history or not yet played. The result may alias
	// session-owned buffers (see RoundResult); Clone it to retain it
	// across further plays on a bounded session.
	ResultAt(round int) (RoundResult, bool)
	// Stats returns a snapshot of the session's counters.
	Stats() SessionStats
	// Subscribe registers an observer for session events (plays, verdicts,
	// convictions, elections, clock recoveries); the returned function
	// cancels the subscription. Sticky events (elections) are replayed to
	// late subscribers.
	Subscribe(Observer) (cancel func())
	// Snapshot captures the session's durable state summary — the replay
	// watermark, counters, and a canonical state digest. Restore rebuilds
	// a byte-identical session from the configuration plus a snapshot.
	// Snapshot works on open and closed sessions alike.
	Snapshot() SessionSnapshot
	// Close finalizes the session: a batched-audit mixed session audits
	// its trailing partial epoch, and a distributed session at n ≥ 10
	// releases its pulse-engine worker pool. Close is idempotent; after a
	// successful Close, Play fails with ErrClosed while Results, ResultAt
	// and Stats keep answering.
	Close() error
}

// SessionStats is a point-in-time snapshot of a session's counters.
type SessionStats struct {
	Kind    SessionKind
	Players int
	// Rounds is the number of completed plays.
	Rounds int
	// CumulativeCost[i] is agent i's total cost over all plays. Every
	// driver tracks it: the trusted drivers on the (actual) game's cost
	// function, the RRA driver as the post-step load of each chosen
	// resource (the §6 strategic-form cost), and the distributed driver on
	// the elected game over the agreed outcomes.
	CumulativeCost []float64
	// Excluded[i] reports whether agent i is currently excluded by the
	// executive service.
	Excluded []bool
	// Fouls is the total number of fouls the judicial service detected.
	Fouls int
	// Convictions counts executive conviction events: agents newly
	// excluded by a play (an agent excluded, re-admitted and excluded
	// again counts twice).
	Convictions int
	// Protocol counts audit-protocol overhead (mixed driver).
	Protocol CostStats
	// MaxLoad is the maximum resource load so far (RRA driver, §6).
	MaxLoad int64
	// Pulses and Messages count network activity (distributed driver).
	Pulses   int64
	Messages int64
}

// ElectionSpec asks NewSession to run the legislative service first: the
// voters elect the game from the candidates via a robust commit-reveal
// election, and the winning game becomes the session's elected game.
type ElectionSpec struct {
	Candidates []Candidate
	Voters     []Voter
}

// SessionConfig is the single configuration surface behind the façade's
// functional options. Exactly one game source must be set: Game, Election,
// or (for the RRA driver) RRAAgents/RRAResources. The driver is inferred
// from the options (see inferKind).
type SessionConfig struct {
	// Game is the elected game the authority enforces.
	Game game.Game
	// Election, if set, elects the game legislatively instead.
	Election *ElectionSpec
	// Seed drives all commitments, honest sampling, and clocks.
	Seed uint64
	// Scheme is the executive's punishment policy. For the distributed
	// driver it is a prototype: each processor replica gets a Fresh copy.
	Scheme punish.Scheme
	// HistoryLimit bounds the retained play history to the most recent
	// HistoryLimit plays (0 = unbounded). Bounded sessions stop growing
	// and record plays into reused ring slots — see Session.Results.
	HistoryLimit int

	// Deviants installs player-level selfish strategies: Deviants[i]
	// replaces player i's honest behaviour with the strategy's compiled
	// hooks for the resolved driver (see Deviant). A player cannot carry
	// both an explicit agent and a deviant.
	Deviants map[int]Deviant

	// Agents are pure-strategy behaviours (pure and distributed drivers);
	// nil entries (or a nil slice) mean honest best-response agents.
	Agents []*Agent

	// Mixed-driver configuration (§5). Strategies is required for a mixed
	// session; MixedAgents nil entries mean honest samplers.
	MixedAgents  []*MixedAgent
	Strategies   func(round int, prev game.Profile) game.MixedProfile
	Actual       game.Game
	Mode         AuditMode
	EpochLen     int
	SampleProb   float64
	Window       int
	ChiThreshold float64

	// RRA-driver configuration (§6). RRAAgents agents share RRAResources
	// resources; RRAByz overrides per-agent choices. Supervision is on
	// exactly when Scheme is set.
	RRAAgents    int
	RRAResources int
	RRAByz       map[int]func(agent int, loads []int64) int

	// Distributed-driver configuration (§3.3 over the synchronous
	// network). DistProcs processors tolerate DistFaults Byzantine ones
	// (n > 3f); DistByz installs network-level adversaries.
	DistProcs  int
	DistFaults int
	DistByz    map[int]sim.Adversary
	// DistPulseBudget bounds how many pulses one Play may consume waiting
	// for a play to complete (0 = a generous default). Exhaustion returns
	// ErrPulseBudget, which is recoverable: the next Play keeps stepping.
	DistPulseBudget int
}

// inferKind resolves the driver from the configuration.
func (cfg *SessionConfig) inferKind() SessionKind {
	switch {
	case cfg.DistProcs > 0 || cfg.DistFaults > 0 || cfg.DistByz != nil:
		return KindDistributed
	case cfg.RRAAgents > 0 || cfg.RRAResources > 0 || cfg.RRAByz != nil:
		return KindRRA
	case cfg.Strategies != nil || cfg.MixedAgents != nil || cfg.Mode != 0:
		return KindMixed
	default:
		return KindPure
	}
}

// NewSession validates the configuration, runs the legislative service if
// requested, and builds the driver for the resolved session kind.
func NewSession(cfg SessionConfig) (Session, error) {
	hub := newObserverHub()

	if cfg.HistoryLimit < 0 {
		return nil, fmt.Errorf("%w: negative history limit %d", ErrConfig, cfg.HistoryLimit)
	}
	if cfg.Election != nil {
		if cfg.Game != nil {
			return nil, fmt.Errorf("%w: both a game and an election were supplied", ErrConfig)
		}
		out, err := RobustElection(cfg.Election.Candidates, cfg.Election.Voters,
			prng.Derive(cfg.Seed, 0xE1EC7).Uint64())
		if err != nil {
			return nil, err
		}
		cfg.Game = cfg.Election.Candidates[out.Winner].Game
		hub.emit(Event{
			Kind:   EventElection,
			Winner: out.Winner,
			Detail: cfg.Election.Candidates[out.Winner].Description,
		})
	}

	// Accelerate the elected game into cost lookup tables (when its
	// profile space is small enough) before any driver or honest agent
	// captures it, so every audit and best-response query is a lookup.
	// Spec-built games arrive already compiled and shared across sessions
	// (read-only tables); Accelerate returns those unchanged.
	cfg.Game = game.Accelerate(cfg.Game)
	cfg.Actual = game.Accelerate(cfg.Actual)

	kind := cfg.inferKind()
	switch kind {
	case KindPure:
		return newPureDriver(cfg, hub)
	case KindMixed:
		return newMixedDriver(cfg, hub)
	case KindRRA:
		return newRRADriver(cfg, hub)
	case KindDistributed:
		return newDistDriver(cfg, hub)
	default:
		return nil, fmt.Errorf("%w: unknown session kind %d", ErrConfig, kind)
	}
}

// playLatency is the per-driver play-latency histogram family, indexed
// by SessionKind. Recording is three atomic adds, so the instrumented
// hot paths keep their pinned allocation budgets (pure play stays 0).
// Every round records inside playN, so it lands in the same series
// regardless of transport or batching.
var playLatency = [...]*obs.Histogram{
	KindPure: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "pure"}),
	KindMixed: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "mixed"}),
	KindRRA: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "rra"}),
	KindDistributed: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "distributed"}),
}

// runSession is the shared Run implementation.
func runSession(ctx context.Context, s Session, rounds int) (RoundResult, error) {
	var last RoundResult
	for i := 0; i < rounds; i++ {
		res, err := s.Play(ctx)
		if err != nil {
			return last, err
		}
		last = res
	}
	return last, nil
}

// playN is the one play body every driver shares: one lock acquisition,
// n sequential locked plays, sink observing each result before the next
// play reuses its scratch. Each driver's Play is playN with n = 1, so a
// batch is the same state evolution as n sequential Play calls by
// construction.
func playN(ctx context.Context, mu *sync.Mutex, kind SessionKind,
	play func(context.Context) (RoundResult, error),
	n int, sink func(RoundResult) error) (RoundResult, error) {
	if n <= 0 {
		return RoundResult{}, fmt.Errorf("%w: non-positive batch size %d", ErrConfig, n)
	}
	hist := playLatency[kind]
	mu.Lock()
	defer mu.Unlock()
	var last RoundResult
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := play(ctx)
		hist.Record(time.Since(t0))
		if err != nil {
			return last, err
		}
		last = res
		if sink != nil {
			if err := sink(res); err != nil {
				return last, err
			}
		}
	}
	return last, nil
}

// snapshotExcluded captures the executive's current exclusion flags.
func snapshotExcluded(n int, excluded func(int) bool) []bool {
	out := make([]bool, n)
	snapshotExcludedInto(out, excluded)
	return out
}

// snapshotExcludedInto is snapshotExcluded over a reused scratch slice.
func snapshotExcludedInto(out []bool, excluded func(int) bool) {
	for i := range out {
		out[i] = excluded(i)
	}
}

// newlyExcluded diffs exclusion flags before and after a play.
func newlyExcluded(before []bool, excluded func(int) bool) []int {
	var out []int
	for i, was := range before {
		if !was && excluded(i) {
			out = append(out, i)
		}
	}
	return out
}

func excludedIDs(flags []bool) []int {
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// playEvents assembles the observer events for one completed play. Event
// payloads are deep-cloned: observers may hold them past the play's
// eviction from a bounded history ring.
func playEvents(res RoundResult, convictions []int) []Event {
	evs := []Event{{
		Kind:    EventPlay,
		Round:   res.Round,
		Outcome: cloneProfile(res.Outcome),
		Costs:   cloneFloats(res.Costs),
		Pulse:   res.Pulse,
	}}
	if len(res.Verdict.Fouls) > 0 {
		evs = append(evs, Event{Kind: EventVerdict, Round: res.Round, Fouls: cloneFouls(res.Verdict.Fouls)})
	}
	for _, agent := range convictions {
		evs = append(evs, Event{
			Kind:   EventConviction,
			Round:  res.Round,
			Agent:  agent,
			Detail: "excluded by the executive service",
		})
	}
	return evs
}

// --- Pure driver ---------------------------------------------------------------

type pureDriver struct {
	mu          sync.Mutex
	s           *PureSession
	n           int
	hub         *observerHub
	fouls       int
	convictions int
	closed      bool
	before      []bool // exclusion-snapshot scratch, reused per play
}

func newPureDriver(cfg SessionConfig, hub *observerHub) (Session, error) {
	if cfg.Game == nil {
		return nil, fmt.Errorf("%w: nil game", ErrConfig)
	}
	if cfg.MixedAgents != nil {
		return nil, fmt.Errorf("%w: mixed agents require strategies (a mixed session)", ErrConfig)
	}
	if cfg.Actual != nil {
		return nil, fmt.Errorf("%w: an actual game applies to mixed sessions", ErrConfig)
	}
	if cfg.DistPulseBudget != 0 {
		return nil, fmt.Errorf("%w: pulse budgets apply to distributed sessions", ErrConfig)
	}
	n := cfg.Game.NumPlayers()
	agents := cfg.Agents
	if agents == nil {
		agents = make([]*Agent, n)
	}
	if len(agents) != n {
		return nil, fmt.Errorf("%w: %d agents for %d players", ErrConfig, len(agents), n)
	}
	filled := make([]*Agent, n)
	copy(filled, agents)
	if err := installPureDeviants(filled, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, err
	}
	for i := range filled {
		if filled[i] == nil {
			filled[i] = HonestPure(cfg.Game, i)
		}
	}
	s, err := NewPureSession(cfg.Game, filled, cfg.Scheme, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := s.SetHistoryLimit(cfg.HistoryLimit); err != nil {
		return nil, err
	}
	return &pureDriver{s: s, n: n, hub: hub, before: make([]bool, n)}, nil
}

// Pure exposes the wrapped driver for measurements.
func (d *pureDriver) Pure() *PureSession { return d.s }

// Play emits events while still holding the play mutex so concurrent
// players cannot interleave streams out of round order (observers must not
// call back into the session — see Observer).
func (d *pureDriver) Play(ctx context.Context) (RoundResult, error) {
	return playN(ctx, &d.mu, KindPure, d.playLocked, 1, nil)
}

// PlayN implements Session.
func (d *pureDriver) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	return playN(ctx, &d.mu, KindPure, d.playLocked, n, sink)
}

func (d *pureDriver) playLocked(ctx context.Context) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if d.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	snapshotExcludedInto(d.before, d.s.Excluded)
	res, err := d.s.PlayRound()
	if err != nil {
		return RoundResult{}, err
	}
	d.fouls += len(res.Verdict.Fouls)
	newly := newlyExcluded(d.before, d.s.Excluded)
	d.convictions += len(newly)
	if d.hub.active() {
		d.hub.emitAll(playEvents(res, newly))
	}
	return res, nil
}

func (d *pureDriver) Run(ctx context.Context, rounds int) (RoundResult, error) {
	return runSession(ctx, d, rounds)
}

func (d *pureDriver) Results() []RoundResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.History()
}

func (d *pureDriver) ResultAt(round int) (RoundResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.ResultAt(round)
}

func (d *pureDriver) Stats() SessionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := SessionStats{
		Kind:           KindPure,
		Players:        d.n,
		Rounds:         d.s.Round(),
		CumulativeCost: make([]float64, d.n),
		Excluded:       snapshotExcluded(d.n, d.s.Excluded),
		Fouls:          d.fouls,
		Convictions:    d.convictions,
	}
	for i := 0; i < d.n; i++ {
		st.CumulativeCost[i] = d.s.CumulativeCost(i)
	}
	return st
}

func (d *pureDriver) Subscribe(o Observer) func() { return d.hub.subscribe(o) }

// Close finalizes the session: further plays fail with ErrClosed while
// Results, ResultAt and Stats keep answering. Close is idempotent.
func (d *pureDriver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// --- Mixed driver --------------------------------------------------------------

type mixedDriver struct {
	mu           sync.Mutex
	s            *MixedSession
	n            int
	hub          *observerHub
	history      historyRing
	seenVerdicts int
	fouls        int
	convictions  int
	closed       bool

	// Per-play scratch, reused across plays.
	before   []bool
	prevCost []float64
	costs    []float64
	merged   audit.Verdict
	result   RoundResult
}

func newMixedDriver(cfg SessionConfig, hub *observerHub) (Session, error) {
	if cfg.Agents != nil {
		return nil, fmt.Errorf("%w: pure-strategy agents on a mixed session (use mixed agents)", ErrConfig)
	}
	if cfg.Game == nil {
		return nil, fmt.Errorf("%w: nil elected game", ErrConfig)
	}
	if cfg.Strategies == nil {
		return nil, fmt.Errorf("%w: mixed sessions require strategies", ErrConfig)
	}
	if cfg.DistPulseBudget != 0 {
		return nil, fmt.Errorf("%w: pulse budgets apply to distributed sessions", ErrConfig)
	}
	n := cfg.Game.NumPlayers()
	agents := make([]*MixedAgent, n)
	if cfg.MixedAgents != nil {
		if len(cfg.MixedAgents) != n {
			return nil, fmt.Errorf("%w: %d mixed agents for %d players", ErrConfig, len(cfg.MixedAgents), n)
		}
		copy(agents, cfg.MixedAgents)
	}
	if err := installMixedDeviants(agents, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == 0 {
		// Default discipline: audit per round when an executive scheme is
		// installed, otherwise the unsupervised baseline.
		if cfg.Scheme != nil {
			mode = AuditPerRound
		} else {
			mode = AuditOff
		}
	}
	s, err := NewMixedSession(MixedConfig{
		Elected:      cfg.Game,
		Actual:       cfg.Actual,
		Strategies:   cfg.Strategies,
		Agents:       agents,
		Scheme:       cfg.Scheme,
		Mode:         mode,
		EpochLen:     cfg.EpochLen,
		SampleProb:   cfg.SampleProb,
		Window:       cfg.Window,
		ChiThreshold: cfg.ChiThreshold,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	d := &mixedDriver{
		s: s, n: n, hub: hub,
		before:   make([]bool, n),
		prevCost: make([]float64, n),
		costs:    make([]float64, n),
	}
	d.history.setLimit(cfg.HistoryLimit)
	return d, nil
}

// Mixed exposes the wrapped driver for measurements.
func (d *mixedDriver) Mixed() *MixedSession { return d.s }

// Play emits events under the play mutex; see pureDriver.Play.
func (d *mixedDriver) Play(ctx context.Context) (RoundResult, error) {
	return playN(ctx, &d.mu, KindMixed, d.playLocked, 1, nil)
}

// PlayN implements Session.
func (d *mixedDriver) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	return playN(ctx, &d.mu, KindMixed, d.playLocked, n, sink)
}

func (d *mixedDriver) playLocked(ctx context.Context) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if d.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	snapshotExcludedInto(d.before, d.s.Excluded)
	for i := range d.prevCost {
		d.prevCost[i] = d.s.CumulativeCost(i)
	}
	outcome, err := d.s.PlayRound()
	if err != nil {
		return RoundResult{}, err
	}
	for i := range d.costs {
		d.costs[i] = d.s.CumulativeCost(i) - d.prevCost[i]
	}
	verdict := d.drainVerdicts()
	d.result = RoundResult{
		Round:     d.s.Round() - 1,
		Outcome:   outcome,
		Verdict:   verdict,
		Convicted: verdict.Guilty(),
		Excluded:  excludedIDs(d.before),
		Costs:     d.costs,
	}
	res := d.history.record(&d.result)
	newly := newlyExcluded(d.before, d.s.Excluded)
	d.convictions += len(newly)
	if d.hub.active() {
		d.hub.emitAll(playEvents(res, newly))
	}
	return res, nil
}

// drainVerdicts merges verdicts issued since the last play into one
// (reusing the driver's scratch). In batched mode an epoch's verdict lands
// on the play that closed the epoch.
func (d *mixedDriver) drainVerdicts() audit.Verdict {
	count := d.s.VerdictCount()
	d.merged.Fouls = d.merged.Fouls[:0]
	for i := d.seenVerdicts; i < count; i++ {
		d.merged.Fouls = append(d.merged.Fouls, d.s.VerdictAt(i).Fouls...)
	}
	d.seenVerdicts = count
	d.fouls += len(d.merged.Fouls)
	return d.merged
}

func (d *mixedDriver) Run(ctx context.Context, rounds int) (RoundResult, error) {
	return runSession(ctx, d, rounds)
}

func (d *mixedDriver) Results() []RoundResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.snapshot()
}

func (d *mixedDriver) ResultAt(round int) (RoundResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.history.at(round)
	if !ok {
		return RoundResult{}, false
	}
	return view(slot), true
}

func (d *mixedDriver) Stats() SessionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := SessionStats{
		Kind:           KindMixed,
		Players:        d.n,
		Rounds:         d.s.Round(),
		CumulativeCost: make([]float64, d.n),
		Excluded:       snapshotExcluded(d.n, d.s.Excluded),
		Fouls:          d.fouls,
		Convictions:    d.convictions,
		Protocol:       d.s.Stats(),
	}
	for i := 0; i < d.n; i++ {
		st.CumulativeCost[i] = d.s.CumulativeCost(i)
	}
	return st
}

func (d *mixedDriver) Subscribe(o Observer) func() { return d.hub.subscribe(o) }

// Close audits any trailing partial epoch (batched mode) and attaches the
// verdict to the last recorded play. A failed close stays open so callers
// can retry it.
func (d *mixedDriver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	before := snapshotExcluded(d.n, d.s.Excluded)
	if err := d.s.CloseEpoch(); err != nil {
		return err
	}
	d.closed = true
	verdict := d.drainVerdicts()
	newly := newlyExcluded(before, d.s.Excluded)
	d.convictions += len(newly)
	if last, ok := d.history.at(d.history.recorded() - 1); len(verdict.Fouls) > 0 && ok {
		last.Verdict.Fouls = append(last.Verdict.Fouls, verdict.Fouls...)
		last.Convicted = append(last.Convicted[:0], last.Verdict.Guilty()...)
		evs := []Event{{Kind: EventVerdict, Round: last.Round, Fouls: cloneFouls(verdict.Fouls)}}
		for _, agent := range newly {
			evs = append(evs, Event{
				Kind:   EventConviction,
				Round:  last.Round,
				Agent:  agent,
				Detail: "excluded by the executive service",
			})
		}
		d.hub.emitAll(evs)
	}
	return nil
}

// --- RRA driver ----------------------------------------------------------------

type rraDriver struct {
	mu          sync.Mutex
	h           *RRASupervised
	n           int
	hub         *observerHub
	history     historyRing
	seenFouls   int
	convictions int
	closed      bool
	cumCost     []float64

	// Per-play scratch, reused across plays.
	before  []bool
	verdict audit.Verdict
	costs   []float64
	result  RoundResult
}

func newRRADriver(cfg SessionConfig, hub *observerHub) (Session, error) {
	if cfg.Game != nil {
		return nil, fmt.Errorf("%w: RRA sessions build their own game (drop the game argument)", ErrConfig)
	}
	if cfg.Strategies != nil || cfg.MixedAgents != nil {
		return nil, fmt.Errorf("%w: RRA sessions use the committed equilibrium strategy", ErrConfig)
	}
	if cfg.Actual != nil {
		return nil, fmt.Errorf("%w: an actual game applies to mixed sessions", ErrConfig)
	}
	if cfg.Agents != nil {
		return nil, fmt.Errorf("%w: RRA behaviours are installed with RRAByz, not agents", ErrConfig)
	}
	if cfg.Mode != 0 {
		return nil, fmt.Errorf("%w: audit disciplines apply to mixed sessions", ErrConfig)
	}
	if cfg.DistPulseBudget != 0 {
		return nil, fmt.Errorf("%w: pulse budgets apply to distributed sessions", ErrConfig)
	}
	h, err := NewRRASupervised(cfg.RRAAgents, cfg.RRAResources, cfg.Seed, cfg.Scheme, cfg.Scheme != nil)
	if err != nil {
		return nil, err
	}
	for agent, choose := range cfg.RRAByz {
		h.SetByzantine(agent, choose)
	}
	deviants, err := deviantPlayers(cfg.Deviants, cfg.RRAAgents)
	if err != nil {
		return nil, err
	}
	for _, player := range deviants {
		if _, taken := cfg.RRAByz[player]; taken {
			return nil, fmt.Errorf("%w: RRA agent %d has both a Byzantine chooser and a deviant strategy", ErrConfig, player)
		}
		h.SetDeviant(player, cfg.Deviants[player].RRAChooser(player, cfg.Seed))
	}
	d := &rraDriver{
		h: h, n: cfg.RRAAgents, hub: hub,
		before:  make([]bool, cfg.RRAAgents),
		costs:   make([]float64, cfg.RRAAgents),
		cumCost: make([]float64, cfg.RRAAgents),
	}
	d.history.setLimit(cfg.HistoryLimit)
	return d, nil
}

// Harness exposes the wrapped driver for measurements.
func (d *rraDriver) Harness() *RRASupervised { return d.h }

// Play emits events under the play mutex; see pureDriver.Play.
func (d *rraDriver) Play(ctx context.Context) (RoundResult, error) {
	return playN(ctx, &d.mu, KindRRA, d.playLocked, 1, nil)
}

// PlayN implements Session.
func (d *rraDriver) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	return playN(ctx, &d.mu, KindRRA, d.playLocked, n, sink)
}

func (d *rraDriver) playLocked(ctx context.Context) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if d.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	snapshotExcludedInto(d.before, d.h.Excluded)
	if err := d.h.PlayRound(); err != nil {
		return RoundResult{}, err
	}
	d.verdict.Fouls = append(d.verdict.Fouls[:0], d.h.fouls[d.seenFouls:]...)
	d.seenFouls = len(d.h.fouls)
	// Per-agent cost of the play: the post-step cumulative load of the
	// chosen resource — exactly the §6 strategic-form cost (pre-step load
	// plus this round's contention).
	for i, choice := range d.h.lastChoices {
		d.costs[i] = float64(d.h.RRA().Load(choice))
		d.cumCost[i] += d.costs[i]
	}
	d.result = RoundResult{
		Round:     d.h.RRA().Rounds() - 1,
		Outcome:   d.h.lastChoices,
		Verdict:   d.verdict,
		Convicted: d.verdict.Guilty(),
		Excluded:  excludedIDs(d.before),
		Costs:     d.costs,
	}
	res := d.history.record(&d.result)
	newly := newlyExcluded(d.before, d.h.Excluded)
	d.convictions += len(newly)
	if d.hub.active() {
		d.hub.emitAll(playEvents(res, newly))
	}
	return res, nil
}

func (d *rraDriver) Run(ctx context.Context, rounds int) (RoundResult, error) {
	return runSession(ctx, d, rounds)
}

func (d *rraDriver) Results() []RoundResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.snapshot()
}

func (d *rraDriver) ResultAt(round int) (RoundResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.history.at(round)
	if !ok {
		return RoundResult{}, false
	}
	return view(slot), true
}

func (d *rraDriver) Stats() SessionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return SessionStats{
		Kind:           KindRRA,
		Players:        d.n,
		Rounds:         d.h.RRA().Rounds(),
		CumulativeCost: append([]float64(nil), d.cumCost...),
		Excluded:       snapshotExcluded(d.n, d.h.Excluded),
		Fouls:          d.seenFouls,
		Convictions:    d.convictions,
		MaxLoad:        d.h.RRA().MaxLoad(),
	}
}

func (d *rraDriver) Subscribe(o Observer) func() { return d.hub.subscribe(o) }

// Close finalizes the session; see pureDriver.Close.
func (d *rraDriver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// --- Distributed driver --------------------------------------------------------

// poolMinProcs is the processor count from which a distributed session
// steps its pulses on sim's worker pool (width min(GOMAXPROCS, n)) instead
// of on the caller's goroutine. The two engines execute identically; which
// one runs is decided here, from n alone, and nowhere else.
//
// Sized by a sweep of PublicGoods(n, 2) on the real driver (2-core host,
// GOMAXPROCS=2, one session, second core idle — the pool's best case; ms
// per play, range over 2–3 runs):
//
//	n, f    lockstep       pool (w=2)     pool vs lockstep
//	 4, 1   0.111–0.123    0.172–0.203    1.6× slower
//	 7, 2   1.91–2.21      1.93–2.26      tie
//	10, 1   1.81–1.95      1.76–1.89      tie
//	10, 2   11.6–13.3      8.4–11.4       ≈ 1.25× faster
//	16, 1   11.1–11.4      8.1            1.4× faster
//	13, 2   52.6–60.2      34.8–34.9      1.6× faster
//	10, 3   93.8–113       58.0–72.9      1.7× faster
//	16, 2   184–192        93.5–97.5      1.95× faster
//	13, 4   14.0–19.1 s    6.2–7.7 s      2.4× faster
//
// Re-measured on the index-addressed EIG kernel (core.DistSession stepped
// directly on each engine, same host and shapes, six runs each side):
//
//	n, f    lockstep       pool (w=2)     pool vs lockstep
//	 4, 1   0.060–0.083    0.086–0.136    1.5× slower
//	 7, 2   0.70–1.05      0.70–1.01      tie
//	10, 1   0.70–1.10      0.76–1.05      tie
//	10, 2   4.1–5.2        2.3–4.0        ≈ 1.4× faster
//	16, 1   2.9–4.3        2.7–3.4        ≈ 1.2× faster
//
// Every row is 2–3× cheaper and the line did not move: the pool still
// loses at n = 4, ties at (7, 2) and (10, 1), and wins from (10, 2) up.
//
// Below 10 a pulse's per-processor work is microseconds, the hand-off
// costs more than it buys, and a host that runs many such sessions has no
// idle core to hand off to (its shard loops already spread sessions over
// the cores).
const poolMinProcs = 10

type distDriver struct {
	mu          sync.Mutex
	s           *DistSession
	step        func() // one network pulse on the engine poolMinProcs selects
	g           game.Game
	n, f        int
	hub         *observerHub
	budget      int
	seen        int
	lastPulse   int
	fouls       int
	convictions int
	closed      bool
	cumCost     []float64
	history     historyRing

	// Per-play scratch, reused across plays.
	before []bool
	costs  []float64
	result RoundResult
}

func newDistDriver(cfg SessionConfig, hub *observerHub) (Session, error) {
	if cfg.Game == nil {
		return nil, fmt.Errorf("%w: nil game", ErrConfig)
	}
	if cfg.Strategies != nil || cfg.MixedAgents != nil {
		return nil, fmt.Errorf("%w: the distributed driver plays pure strategies", ErrConfig)
	}
	if cfg.Mode != 0 {
		return nil, fmt.Errorf("%w: audit disciplines apply to mixed sessions", ErrConfig)
	}
	if cfg.Actual != nil {
		return nil, fmt.Errorf("%w: an actual game applies to mixed sessions", ErrConfig)
	}
	if cfg.RRAAgents > 0 || cfg.RRAResources > 0 || cfg.RRAByz != nil {
		return nil, fmt.Errorf("%w: RRA options on a distributed session", ErrConfig)
	}
	n, f := cfg.DistProcs, cfg.DistFaults
	if n == 0 && cfg.DistByz != nil {
		// A network adversary alone selected this driver; name the real
		// mistake instead of failing the n > 3f arithmetic below.
		return nil, fmt.Errorf("%w: network adversaries require a distributed session (combine WithNetworkAdversary with WithDistributed)", ErrConfig)
	}
	if n <= 3*f {
		return nil, fmt.Errorf("%w: need n > 3f (got n=%d f=%d)", ErrConfig, n, f)
	}
	if cfg.Agents != nil && len(cfg.Agents) != n {
		return nil, fmt.Errorf("%w: %d agents for %d processors", ErrConfig, len(cfg.Agents), n)
	}
	behaviors := make([]*Agent, n)
	copy(behaviors, cfg.Agents)
	if err := installPureDeviants(behaviors, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, err
	}
	s, err := NewDistSessionWith(n, f, cfg.Game, behaviors, cfg.Seed, cfg.DistByz, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	budget := cfg.DistPulseBudget
	if budget <= 0 {
		budget = 50 * PulsesPerPlay(f)
	}
	step := s.Net.StepLockstep
	if n >= poolMinProcs {
		step = s.Net.StepConcurrent
	}
	d := &distDriver{
		s: s, g: cfg.Game, n: n, f: f, hub: hub, budget: budget, step: step,
		before:  make([]bool, n),
		costs:   make([]float64, n),
		cumCost: make([]float64, n),
	}
	d.history.setLimit(cfg.HistoryLimit)
	return d, nil
}

// Dist exposes the wrapped network session for fault injection and
// consistency checks.
func (d *distDriver) Dist() *DistSession { return d.s }

// Play emits events under the play mutex; see pureDriver.Play.
func (d *distDriver) Play(ctx context.Context) (RoundResult, error) {
	return playN(ctx, &d.mu, KindDistributed, d.playLocked, 1, nil)
}

// PlayN implements Session.
func (d *distDriver) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	return playN(ctx, &d.mu, KindDistributed, d.playLocked, n, sink)
}

func (d *distDriver) playLocked(ctx context.Context) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if d.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	if len(d.s.Honest) == 0 {
		return RoundResult{}, fmt.Errorf("%w: no honest processors to observe", ErrConfig)
	}
	ref := d.s.Procs[d.s.Honest[0]]
	// A transient fault wipes processor histories; re-anchor the cursor.
	if c := ref.ResultCount(); c < d.seen {
		d.seen = c
	}
	snapshotExcludedInto(d.before, ref.Excluded)
	for steps := 0; ref.ResultCount() <= d.seen; steps++ {
		if err := ctx.Err(); err != nil {
			return RoundResult{}, err
		}
		if steps >= d.budget {
			return RoundResult{}, fmt.Errorf("%w (budget %d pulses)", ErrPulseBudget, d.budget)
		}
		d.step()
	}
	r := ref.resultRef(d.seen)
	d.seen++

	round := d.history.recorded()
	var evs []Event
	clockRecovered := d.lastPulse > 0 && r.Pulse-d.lastPulse > PulsesPerPlay(d.f)
	if clockRecovered && d.hub.active() {
		evs = append(evs, Event{
			Kind:   EventClockRecovery,
			Round:  round,
			Pulse:  r.Pulse,
			Detail: fmt.Sprintf("play completed after a %d-pulse gap (one period is %d)", r.Pulse-d.lastPulse, PulsesPerPlay(d.f)),
		})
	}
	d.lastPulse = r.Pulse

	// Per-agent cost of the agreed outcome on the elected game — the
	// value the profit auditor compares across honest/deviant twins.
	for i := 0; i < d.n; i++ {
		d.costs[i] = d.g.Cost(i, r.Outcome)
		d.cumCost[i] += d.costs[i]
	}
	d.result = RoundResult{
		Round:     round,
		Outcome:   r.Outcome,
		Convicted: r.Guilty,
		Excluded:  excludedIDs(d.before),
		Costs:     d.costs,
		Pulse:     r.Pulse,
	}
	d.fouls += len(r.Guilty)
	res := d.history.record(&d.result)
	newly := newlyExcluded(d.before, ref.Excluded)
	d.convictions += len(newly)
	if d.hub.active() {
		evs = append(evs, playEvents(res, newly)...)
		d.hub.emitAll(evs)
	}
	return res, nil
}

func (d *distDriver) Run(ctx context.Context, rounds int) (RoundResult, error) {
	return runSession(ctx, d, rounds)
}

func (d *distDriver) Results() []RoundResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.snapshot()
}

func (d *distDriver) ResultAt(round int) (RoundResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.history.at(round)
	if !ok {
		return RoundResult{}, false
	}
	return view(slot), true
}

func (d *distDriver) Stats() SessionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := SessionStats{
		Kind:           KindDistributed,
		Players:        d.n,
		Rounds:         d.history.recorded(),
		CumulativeCost: append([]float64(nil), d.cumCost...),
		Fouls:          d.fouls,
		Convictions:    d.convictions,
		Pulses:         int64(d.s.Net.Stats.Pulses),
		Messages:       d.s.Net.Stats.MessagesSent,
	}
	if len(d.s.Honest) > 0 {
		st.Excluded = snapshotExcluded(d.n, d.s.Procs[d.s.Honest[0]].Excluded)
	}
	return st
}

func (d *distDriver) Subscribe(o Observer) func() { return d.hub.subscribe(o) }

// Close finalizes the session and, at n ≥ 10 (poolMinProcs), releases the
// pulse engine's worker pool. Further plays fail with ErrClosed; Results,
// ResultAt and Stats keep answering. Close is idempotent.
func (d *distDriver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.s.Net.Close()
	return nil
}
