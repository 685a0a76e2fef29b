package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// SessionKind identifies which engine a Session runs on.
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

// Session is the uniform authority-session interface. NewSession
// implements it once, as one driver shell over the engine of each kind
// (pure, mixed, RRA, distributed). Sessions are safe for concurrent use;
// plays are serialized internally.
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
	// and record plays into reused ring rows — see Session.Results.
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

// kindOptions is the one table of kind-specific options: each row names a
// configuration field, the session kinds that accept it, and the error
// NewSession returns when a session of another kind is given it.
var kindOptions = []struct {
	set    func(SessionConfig) bool
	accept []SessionKind
	msg    string
}{
	{func(c SessionConfig) bool { return c.Game != nil }, []SessionKind{KindPure, KindMixed, KindDistributed},
		"RRA sessions build their own game (drop the game argument)"},
	{func(c SessionConfig) bool { return c.Agents != nil }, []SessionKind{KindPure, KindDistributed},
		"pure-strategy agents apply to pure and distributed sessions (mixed sessions take mixed agents, RRA sessions RRAByz)"},
	{func(c SessionConfig) bool { return c.Strategies != nil || c.MixedAgents != nil }, []SessionKind{KindMixed},
		"strategies and mixed agents apply to mixed sessions"},
	{func(c SessionConfig) bool { return c.Actual != nil }, []SessionKind{KindMixed},
		"an actual game applies to mixed sessions"},
	{func(c SessionConfig) bool { return c.Mode != 0 }, []SessionKind{KindMixed},
		"audit disciplines apply to mixed sessions"},
	{func(c SessionConfig) bool { return c.RRAAgents > 0 || c.RRAResources > 0 || c.RRAByz != nil }, []SessionKind{KindRRA},
		"RRA options apply to RRA sessions"},
	{func(c SessionConfig) bool { return c.DistPulseBudget != 0 }, []SessionKind{KindDistributed},
		"pulse budgets apply to distributed sessions"},
}

// NewSession validates the configuration, runs the legislative service if
// requested, and builds the driver shell over the engine of the resolved
// session kind.
func NewSession(cfg SessionConfig) (Session, error) {
	hub := &observerHub{}

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
	kind := cfg.inferKind()
	for _, opt := range kindOptions {
		if opt.set(cfg) && !slices.Contains(opt.accept, kind) {
			return nil, fmt.Errorf("%w: %s", ErrConfig, opt.msg)
		}
	}

	// Accelerate the elected game into cost lookup tables (when its
	// profile space is small enough) before any engine or honest agent
	// captures it, so every audit and best-response query is a lookup.
	// Spec-built games arrive already compiled and shared across sessions
	// (read-only tables); Accelerate returns those unchanged.
	cfg.Game = game.Accelerate(cfg.Game)
	cfg.Actual = game.Accelerate(cfg.Actual)

	var (
		eng engine
		n   int
		err error
	)
	switch kind {
	case KindPure:
		eng, n, err = newPureEngine(cfg)
	case KindMixed:
		eng, n, err = newMixedEngine(cfg)
	case KindRRA:
		eng, n, err = newRRAEngine(cfg)
	default:
		eng, n, err = newDistEngine(cfg, hub)
	}
	if err != nil {
		return nil, err
	}
	return &driver{kind: kind, n: n, eng: eng, hub: hub, history: historyRing{limit: cfg.HistoryLimit}}, nil
}

// EngineOf returns the per-kind engine behind a Session built by
// NewSession — a *PureSession, *MixedSession, *RRASupervised or
// *DistSession — or nil for any other Session.
func EngineOf(s Session) any {
	if d, ok := s.(*driver); ok {
		return d.eng
	}
	return nil
}

// playLatency is the play-latency histogram family, indexed by
// SessionKind. Recording is three atomic adds, so the instrumented hot
// paths keep their pinned allocation budgets (pure play stays 0). Every
// round records inside PlayN, so it lands in the same series regardless
// of transport or batching.
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

// playFouls is a play's foul count, the one definition behind
// Stats().Fouls and what the shell hands its stage: one per verdict foul,
// or, when the play carries no verdict detail (a distributed play agrees
// only on the foul set), one per convicted agent.
func playFouls(res RoundResult) int {
	if n := len(res.Verdict.Fouls); n > 0 {
		return n
	}
	return len(res.Convicted)
}

// engine is what a session kind plugs into the driver shell. The shell
// owns the lock, the closed flag, the history, the counters and the
// events; an engine owns the game state.
type engine interface {
	// step plays one round into w.result, whose Round and Excluded the
	// shell has set: it writes the fields of the result its kind
	// establishes (Outcome, Verdict, Convicted, Costs, Pulse) on every
	// play, reusing the result's slices where it owns them. w is lent
	// for the play (see workspace).
	step(ctx context.Context, w *workspace) error
	// Excluded reports whether the executive currently excludes agent i.
	Excluded(i int) bool
	// CumulativeCost returns agent i's total cost over every play.
	CumulativeCost(i int) float64
	// kindStats fills st's kind-only fields.
	kindStats(st *SessionStats)
	// finish runs at Close until it first succeeds, and returns any
	// verdict it issues. On error the session stays open.
	finish() (audit.Verdict, error)
}

// stateCodec is what the pure and RRA engines add to engine, so that a
// snapshot of a bounded-history session carries their state (see
// AppendSnapshot). The mixed and distributed engines have none and
// restore by replay.
type stateCodec interface {
	// appendState appends the state a play boundary leaves in the engine
	// beyond the snapshot's counters, or reports false when it cannot (a
	// scheme with no ledger encoding).
	appendState(dst []byte) ([]byte, bool)
	// parseState loads what appendState wrote into a freshly built
	// engine. rounds is the session's play count and cum its cumulative
	// costs, both from the snapshot, and prev the newest play's outcome
	// (nil before the first) from the loaded history; prev aliases the
	// ring.
	parseState(r *stateReader, rounds int, prev game.Profile, cum []float64)
}

// Stage is the last step of the shell's play order (see Attach). It runs
// under the driver lock after events: once per play with its result, foul
// count and len(res.Convicted), and once more, fold set, with what Close
// adds to the last play when it folds in a trailing verdict. res may alias
// the history ring, and the stage must not call back into the session.
type Stage func(res RoundResult, fouls, convicted int, fold bool)

// Attach installs stage at the end of the play order of a session that
// NewSession built; plays made before it (a Restore's replay) never reach
// it. Any other Session is left as it is.
func Attach(s Session, stage Stage) {
	if d, ok := s.(*driver); ok {
		d.mu.Lock()
		d.stage = stage
		d.mu.Unlock()
	}
}

// driver is the one Session implementation. Every play runs the same
// order: gate (context, closed) → exclusion snapshot → engine step into
// a lent workspace → record in the history ring → counters → events →
// the attached stage. Events are emitted while the play mutex is held, so
// concurrent players cannot interleave streams out of round order
// (observers must not call back into the session — see Observer).
type driver struct {
	mu          sync.Mutex
	kind        SessionKind
	n           int
	eng         engine
	hub         *observerHub
	history     historyRing
	fouls       int
	convictions int
	closed      bool
	stage       Stage
}

// Play executes one play: PlayN with n = 1.
func (d *driver) Play(ctx context.Context) (RoundResult, error) {
	return d.PlayN(ctx, 1, nil)
}

// PlayN runs n plays under one lock acquisition on one lent workspace,
// sink observing each result before the next play; a batch is the same
// state evolution as n sequential Play calls by construction. The
// workspace goes back to the free list when the batch ends: what a play
// returns, and what sink and the stage see, is the history ring's view.
func (d *driver) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	if n <= 0 {
		return RoundResult{}, fmt.Errorf("%w: non-positive batch size %d", ErrConfig, n)
	}
	hist := playLatency[d.kind]
	d.mu.Lock()
	defer d.mu.Unlock()
	w := takeWorkspace(d.kind, d.n)
	defer w.release()
	var last RoundResult
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := d.playLocked(ctx, w)
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

func (d *driver) playLocked(ctx context.Context, w *workspace) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if d.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	res := &w.result
	res.Round = d.history.recorded()
	res.Excluded = d.excluded(res.Excluded)
	if err := d.eng.step(ctx, w); err != nil {
		return RoundResult{}, err
	}
	out := d.history.record(res)
	fouls := playFouls(out)
	d.fouls += fouls
	newly := d.newlyExcluded(res.Excluded)
	d.convictions += len(newly)
	if d.hub.active() {
		d.hub.emit(Event{
			Kind:    EventPlay,
			Round:   out.Round,
			Outcome: clone(out.Outcome),
			Costs:   clone(out.Costs),
			Pulse:   out.Pulse,
		})
		d.emitVerdict(out.Round, out.Verdict.Fouls, newly)
	}
	if d.stage != nil {
		d.stage(out, fouls, len(out.Convicted), false)
	}
	return out, nil
}

// excluded lists the agents the engine excludes now, ascending, into dst.
func (d *driver) excluded(dst []int) []int {
	dst = dst[:0]
	for i := 0; i < d.n; i++ {
		if d.eng.Excluded(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// newlyExcluded lists the agents excluded now but not in before, an
// ascending list that excluded built.
func (d *driver) newlyExcluded(before []int) []int {
	var out []int
	for i := 0; i < d.n; i++ {
		if len(before) > 0 && before[0] == i {
			before = before[1:]
		} else if d.eng.Excluded(i) {
			out = append(out, i)
		}
	}
	return out
}

// emitVerdict publishes a verdict and the convictions it caused. Event
// payloads are deep-cloned: observers may hold them past the play's
// eviction from a bounded history ring.
func (d *driver) emitVerdict(round int, fouls []audit.Foul, convicted []int) {
	if len(fouls) > 0 {
		d.hub.emit(Event{Kind: EventVerdict, Round: round, Fouls: clone(fouls)})
	}
	for _, agent := range convicted {
		d.hub.emit(Event{
			Kind:   EventConviction,
			Round:  round,
			Agent:  agent,
			Detail: "excluded by the executive service",
		})
	}
}

// Run executes the given number of plays and returns the last result.
func (d *driver) Run(ctx context.Context, rounds int) (RoundResult, error) {
	var last RoundResult
	for i := 0; i < rounds; i++ {
		res, err := d.Play(ctx)
		if err != nil {
			return last, err
		}
		last = res
	}
	return last, nil
}

// Results implements Session.
func (d *driver) Results() []RoundResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.snapshot()
}

// ResultAt implements Session.
func (d *driver) ResultAt(round int) (RoundResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.at(round)
}

// Stats implements Session.
func (d *driver) Stats() SessionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statsLocked()
}

func (d *driver) statsLocked() SessionStats {
	st := SessionStats{
		Kind:           d.kind,
		Players:        d.n,
		Rounds:         d.history.recorded(),
		CumulativeCost: make([]float64, d.n),
		Excluded:       make([]bool, d.n),
		Fouls:          d.fouls,
		Convictions:    d.convictions,
	}
	for i := 0; i < d.n; i++ {
		st.CumulativeCost[i] = d.eng.CumulativeCost(i)
		st.Excluded[i] = d.eng.Excluded(i)
	}
	d.eng.kindStats(&st)
	return st
}

// Subscribe implements Session.
func (d *driver) Subscribe(o Observer) func() { return d.hub.subscribe(o) }

// Close finishes the engine (a batched-audit mixed session audits its
// trailing epoch, a distributed one releases its worker pool) and folds
// any verdict that issues into the last recorded play, telling the stage
// what the fold added. A failed close stays open so callers can retry it;
// Close is idempotent.
func (d *driver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	w := takeWorkspace(d.kind, d.n)
	defer w.release()
	before := d.excluded(w.result.Excluded)
	w.result.Excluded = before
	verdict, err := d.eng.finish()
	if err != nil {
		return err
	}
	d.closed = true
	last, ok := d.history.at(d.history.recorded() - 1)
	if !ok || len(verdict.Fouls) == 0 {
		return nil
	}
	fouls, convicted := playFouls(last), len(last.Convicted)
	last = d.history.fold(verdict.Fouls)
	fouls, convicted = playFouls(last)-fouls, len(last.Convicted)-convicted
	d.fouls += fouls
	newly := d.newlyExcluded(before)
	d.convictions += len(newly)
	d.emitVerdict(last.Round, verdict.Fouls, newly)
	if d.stage != nil {
		d.stage(last, fouls, convicted, true)
	}
	return nil
}

// --- Engine constructors -----------------------------------------------------

func newPureEngine(cfg SessionConfig) (engine, int, error) {
	if cfg.Game == nil {
		return nil, 0, fmt.Errorf("%w: nil game", ErrConfig)
	}
	n := cfg.Game.NumPlayers()
	if cfg.Agents != nil && len(cfg.Agents) != n {
		return nil, 0, fmt.Errorf("%w: %d agents for %d players", ErrConfig, len(cfg.Agents), n)
	}
	agents := make([]*Agent, n)
	copy(agents, cfg.Agents)
	if err := installPureDeviants(agents, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, 0, err
	}
	s, err := NewPureSession(cfg.Game, agents, cfg.Scheme, cfg.Seed)
	return s, n, err
}

func newMixedEngine(cfg SessionConfig) (engine, int, error) {
	if cfg.Game == nil {
		return nil, 0, fmt.Errorf("%w: nil elected game", ErrConfig)
	}
	if cfg.Strategies == nil {
		return nil, 0, fmt.Errorf("%w: mixed sessions require strategies", ErrConfig)
	}
	n := cfg.Game.NumPlayers()
	if cfg.MixedAgents != nil && len(cfg.MixedAgents) != n {
		return nil, 0, fmt.Errorf("%w: %d mixed agents for %d players", ErrConfig, len(cfg.MixedAgents), n)
	}
	agents := make([]*MixedAgent, n)
	copy(agents, cfg.MixedAgents)
	if err := installMixedDeviants(agents, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, 0, err
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
	return s, n, err
}

func newRRAEngine(cfg SessionConfig) (engine, int, error) {
	h, err := NewRRASupervised(cfg.RRAAgents, cfg.RRAResources, cfg.Seed, cfg.Scheme, cfg.Scheme != nil)
	if err != nil {
		return nil, 0, err
	}
	for agent, choose := range cfg.RRAByz {
		h.SetByzantine(agent, choose)
	}
	deviants, err := deviantPlayers(cfg.Deviants, cfg.RRAAgents)
	if err != nil {
		return nil, 0, err
	}
	for _, player := range deviants {
		if _, taken := cfg.RRAByz[player]; taken {
			return nil, 0, fmt.Errorf("%w: RRA agent %d has both a Byzantine chooser and a deviant strategy", ErrConfig, player)
		}
		h.SetDeviant(player, cfg.Deviants[player].RRAChooser(player, cfg.Seed))
	}
	return h, cfg.RRAAgents, nil
}

func newDistEngine(cfg SessionConfig, hub *observerHub) (engine, int, error) {
	if cfg.Game == nil {
		return nil, 0, fmt.Errorf("%w: nil game", ErrConfig)
	}
	n, f := cfg.DistProcs, cfg.DistFaults
	if n == 0 && cfg.DistByz != nil {
		// A network adversary alone selected this kind; name the real
		// mistake instead of failing the n > 3f arithmetic below.
		return nil, 0, fmt.Errorf("%w: network adversaries require a distributed session (combine WithNetworkAdversary with WithDistributed)", ErrConfig)
	}
	if n <= 3*f {
		return nil, 0, fmt.Errorf("%w: need n > 3f (got n=%d f=%d)", ErrConfig, n, f)
	}
	if cfg.Agents != nil && len(cfg.Agents) != n {
		return nil, 0, fmt.Errorf("%w: %d agents for %d processors", ErrConfig, len(cfg.Agents), n)
	}
	behaviors := make([]*Agent, n)
	copy(behaviors, cfg.Agents)
	if err := installPureDeviants(behaviors, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, 0, err
	}
	s, err := NewDistSessionWith(n, f, cfg.Game, behaviors, cfg.Seed, cfg.DistByz, cfg.Scheme)
	if err != nil {
		return nil, 0, err
	}
	s.budget = cfg.DistPulseBudget
	if s.budget <= 0 {
		s.budget = 50 * PulsesPerPlay(f)
	}
	s.pulse = s.Net.StepLockstep
	if n >= poolMinProcs {
		s.pulse = s.Net.StepConcurrent
	}
	s.cumCost = make([]float64, n)
	s.hub = hub
	return s, n, nil
}

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
