package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"gameauthority/internal/audit"
	"gameauthority/internal/bap"
	"gameauthority/internal/clocksync"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
)

// The distributed driver runs the complete §3.3 play protocol on the
// synchronous network: a self-stabilizing Byzantine clock (§4) schedules
// four phases per play, each phase being one interactive-consistency (BAP)
// execution:
//
//	phase 0 OUTCOME — agree on the outcome of the previous play;
//	phase 1 COMMIT  — agree on the set of action commitments;
//	phase 2 REVEAL  — agree on the set of openings;
//	phase 3 VERDICT — every processor audits the agreed evidence locally
//	                  (deterministically) and the foul set is agreed, after
//	                  which each processor's executive replica punishes.
//
// Because the phase position is derived from the self-stabilizing clock
// value, the whole loop is self(ish)-stabilizing in the paper's sense: any
// transient corruption dies at the next clock wrap. The executive's punish
// ledger is reset by the fault injector and rebuilt from fresh verdicts —
// the paper's §4 remark that the executive service must be made
// self-stabilizing "on a case basis".

// distPhase identifies the protocol phase within a play.
type distPhase int

const (
	phaseOutcome distPhase = iota
	phaseCommit
	phaseReveal
	phaseVerdict
	numPhases
)

// distMsg is the combined wire payload: a clock vote plus an optional
// phase-tagged inner interactive-consistency message. It travels by
// pointer into a sender-owned slab (see DistProcessor.slabs): boxing a
// pointer in the Message's any payload does not allocate, which is what
// keeps the pulse loop's per-message cost flat.
type distMsg struct {
	Tick  int
	Phase distPhase
	// Inner carries the bap IC payloads opaquely (one per in-flight
	// agreement instance); empty when the sender has no protocol traffic
	// this pulse.
	Inner []any
	// HasInner distinguishes "no traffic" from an empty list forged by an
	// adversary.
	HasInner bool
}

// resultRing is how many completed plays a processor retains: its result
// log is a ring that overwrites the oldest play, so a processor's memory
// stays flat however long it runs. The hosted driver reads only the newest
// play; 64 covers the longest tail any caller compares (Theorem 1's 50
// periods plus 2 reconvergence plays in TestDistSessionSelfStabilization).
const resultRing = 64

// slabRounds is how many pulses a sent distMsg must stay untouched before
// its slab slot can be reused: one pulse in transit, one pulse being read,
// plus one pulse of slack for adversaries that replay a Byzantine
// processor's outbox with a delay.
const slabRounds = 3

// DistProcessor is one agent's full middleware stack: clock + phase machine
// + judicial/executive replicas + application-layer behaviour.
type DistProcessor struct {
	id, n, f int
	g        game.Game
	behavior *Agent
	scheme   punish.Scheme
	seed     uint64

	clock    *clocksync.Clock
	phaseLen int
	m        int

	// ic is the allocation-free interactive-consistency engine, built once
	// at construction and Reset at every phase start; icActive gates it.
	ic        *bap.IC
	icActive  bool
	icPhase   distPhase
	icPulse   int
	completed [numPhases]bool

	// Reused per-pulse buffers (see Step): the outbox and the buffered
	// inner-payload scratch are recycled every pulse; the carrier-message
	// slab rotates over slabRounds pulses so in-flight pointers are never
	// overwritten. All destinations share one inner payload list per pulse
	// (IC broadcasts are identical to every destination).
	outBuf    []sim.Message
	innerPay  []any
	innerFrom []int
	slabs     [slabRounds][]distMsg

	// Per-play working state (agreed evidence), pre-sized at construction;
	// haveDigests/haveOpenings flag which phases have produced evidence
	// since the last play (or corruption). prev is nil or aliases prevBuf,
	// the processor's own copy of the agreed previous outcome, which the
	// OUTCOME phase parses in place.
	prev         game.Profile
	prevBuf      game.Profile
	round        int
	myOpening    commit.Opening
	digests      []commit.Digest
	openings     []commit.Opening
	revealed     []bool
	haveDigests  bool
	haveOpenings bool
	convicted    []bool

	// Phase-boundary scratch, the PureSession discipline: enc holds the
	// encoding of the value being contributed (the engine copies it at
	// Reset), and prevView, actions, verdict and guilty are the Choose view
	// of prev, the audited profile and verdict, and the foul set — all
	// reused every play, so a play allocates nothing.
	enc      []byte
	prevView game.Profile
	actions  game.Profile
	verdict  audit.Verdict
	guilty   []int

	// phaseSpan is the open trace span covering the current interactive-
	// consistency phase (zero when the tracer is disabled or no phase is
	// in flight); per-pulse sub-spans nest inside it in the dump.
	phaseSpan obs.Ctx

	// results is the ring of the last resultRing completed plays, built at
	// the first play: play k since the last fault sits in slot k %
	// resultRing, whose Outcome is a fixed window of one shared buffer and
	// whose Guilty grows on the first conviction it records. played counts
	// every play since the last fault.
	results []DistRound
	played  int
}

// phaseSpanNames maps a protocol phase to its trace span name (the
// VERDICT phase is the paper's foul-set vote). Per-pulse spans inside a
// phase are "pulse.clock-sync" (vote split + self-stabilizing tick),
// "pulse.dolev-strong" (ic.Deliver of the pulse's EIG payloads; despite
// the name, no Dolev–Strong broadcast runs here) and
// "pulse.eig-resolve" (ic.EndPulse: round end, resolution, next
// broadcast). See DESIGN.md §14.
var phaseSpanNames = [numPhases]string{
	phaseOutcome: "phase.outcome",
	phaseCommit:  "phase.commit",
	phaseReveal:  "phase.reveal",
	phaseVerdict: "phase.vote",
}

// DistRound is one completed play as recorded by a processor. The
// processor's copy is overwritten resultRing plays later; Results hands
// out deep copies.
type DistRound struct {
	Pulse   int
	Outcome game.Profile
	Guilty  []int
}

var (
	_ sim.Process     = (*DistProcessor)(nil)
	_ sim.Corruptible = (*DistProcessor)(nil)
)

// DistModulus returns the clock modulus used by the distributed driver:
// four interactive-consistency phases plus wrap slack.
func DistModulus(f int) int { return int(numPhases)*bap.TotalPulses(f) + 2 }

// PulsesPerPlay returns the number of network pulses one complete play
// takes in the distributed driver.
func PulsesPerPlay(f int) int { return DistModulus(f) }

// NewDistProcessor builds processor id running the authority middleware for
// the elected game g with the given behaviour and punishment scheme replica.
func NewDistProcessor(id, n, f int, g game.Game, behavior *Agent, scheme punish.Scheme, seed uint64) (*DistProcessor, error) {
	if g == nil || behavior == nil || behavior.Choose == nil {
		return nil, fmt.Errorf("%w: nil game or behaviour", ErrConfig)
	}
	if g.NumPlayers() != n {
		return nil, fmt.Errorf("%w: game has %d players for %d processors", ErrConfig, g.NumPlayers(), n)
	}
	if scheme == nil {
		return nil, fmt.Errorf("%w: nil punishment scheme", ErrConfig)
	}
	m := DistModulus(f)
	clock, err := clocksync.New(id, n, f, m, seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	ic, err := bap.NewIC(id, n, f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	p := &DistProcessor{
		id: id, n: n, f: f, g: g, behavior: behavior, scheme: scheme, seed: seed,
		clock: clock, phaseLen: bap.TotalPulses(f), m: m, ic: ic,
		outBuf:    make([]sim.Message, 0, n),
		innerPay:  make([]any, 0, n*n),
		innerFrom: make([]int, 0, n*n),
		prevBuf:   make(game.Profile, 0, n),
		digests:   make([]commit.Digest, n),
		openings:  make([]commit.Opening, n),
		revealed:  make([]bool, n),
		convicted: make([]bool, n),
		prevView:  make(game.Profile, 0, n),
		actions:   make(game.Profile, n),
	}
	for i := range p.slabs {
		p.slabs[i] = make([]distMsg, 0, n)
	}
	return p, nil
}

// ID implements sim.Process.
func (p *DistProcessor) ID() int { return p.id }

// ResultCount returns the number of plays this processor has completed
// since its last transient fault.
func (p *DistProcessor) ResultCount() int { return p.played }

// resultRef returns the i-th play since the last fault without copying;
// i must be one of the retained plays. The session driver clones what it
// keeps.
func (p *DistProcessor) resultRef(i int) *DistRound { return &p.results[i%resultRing] }

// Results returns deep copies of the retained plays — the last
// min(ResultCount, resultRing) — oldest first.
func (p *DistProcessor) Results() []DistRound {
	out := make([]DistRound, min(p.played, resultRing))
	first := p.played - len(out)
	for k := range out {
		r := p.resultRef(first + k)
		out[k] = DistRound{Pulse: r.Pulse, Outcome: r.Outcome.Clone(), Guilty: append([]int(nil), r.Guilty...)}
	}
	return out
}

// nextResult claims the ring slot of the next completed play, overwriting
// the oldest retained play once the ring is full.
func (p *DistProcessor) nextResult() *DistRound {
	if p.results == nil {
		p.results = make([]DistRound, resultRing)
		outcomes := make(game.Profile, resultRing*p.n)
		for i := range p.results {
			p.results[i].Outcome = outcomes[i*p.n : i*p.n : (i+1)*p.n]
		}
	}
	r := p.resultRef(p.played)
	p.played++
	return r
}

// Excluded reports whether this processor's executive replica has excluded
// the given agent.
func (p *DistProcessor) Excluded(agent int) bool { return p.scheme.Excluded(agent) }

// Step implements sim.Process.
func (p *DistProcessor) Step(pulse int, inbox []sim.Message) []sim.Message {
	// 1. Split inbox into clock votes and phase traffic. Inner payloads
	// are buffered, not delivered: whether they count must be decided
	// against the schedule the post-Tick clock implies (a stale-phase
	// message discarded here and one absorbed after a phase restart would
	// otherwise diverge under Byzantine clock chaos).
	clockSpan := obs.DefaultTracer.Begin("pulse.clock-sync", "pulse", int64(p.id), int64(pulse))
	innerPay := p.innerPay[:0]
	innerFrom := p.innerFrom[:0]
	for _, m := range inbox {
		msg, ok := m.Payload.(*distMsg)
		if !ok {
			continue
		}
		p.clock.Vote(m.From, msg.Tick)
		if msg.HasInner && p.icActive && msg.Phase == p.icPhase {
			for _, payload := range msg.Inner {
				innerPay = append(innerPay, payload)
				innerFrom = append(innerFrom, m.From)
			}
		}
	}
	p.innerPay = innerPay
	p.innerFrom = innerFrom
	v := p.clock.Tick()
	clockSpan.End()

	// 2. Map the clock value onto (phase, relative pulse). Values 0 and
	// M-1 are the wrap slack with no protocol activity.
	phase, rel, active := p.locate(v)

	var out []any
	if active {
		if rel == 0 {
			p.startPhase(phase, pulse)
		}
		if p.icActive && p.icPhase == phase {
			dsSpan := obs.DefaultTracer.Begin("pulse.dolev-strong", "pulse", int64(p.id), int64(pulse))
			for i, payload := range innerPay {
				p.ic.Deliver(innerFrom[i], payload)
			}
			dsSpan.End()
			eigSpan := obs.DefaultTracer.Begin("pulse.eig-resolve", "pulse", int64(p.id), int64(pulse))
			var done bool
			out, done = p.ic.EndPulse(pulse)
			eigSpan.End()
			p.icPulse++
			if done {
				p.finishPhase(phase, p.ic.VectorRef(), pulse)
				p.icActive = false
				p.phaseSpan.End()
				p.phaseSpan = obs.Ctx{}
			}
		}
	}

	// 3. Broadcast combined payload: one slab-backed *distMsg per
	// destination, all sharing the engine's inner payload list for this
	// pulse. Slabs rotate over slabRounds pulses so messages still in
	// transit are never overwritten.
	slabIdx := pulse % slabRounds
	slab := p.slabs[slabIdx][:0]
	msgs := p.outBuf[:0]
	tick := p.clock.Value()
	for to := 0; to < p.n; to++ {
		dm := distMsg{Tick: tick, Phase: p.icPhase}
		if len(out) > 0 {
			dm.Inner = out
			dm.HasInner = true
		}
		slab = append(slab, dm)
		msgs = append(msgs, sim.Message{From: p.id, To: to, Payload: &slab[len(slab)-1]})
	}
	p.slabs[slabIdx] = slab
	p.outBuf = msgs
	return msgs
}

// locate maps a clock value to the protocol schedule.
func (p *DistProcessor) locate(v int) (distPhase, int, bool) {
	if v < 1 || v > int(numPhases)*p.phaseLen {
		return 0, 0, false
	}
	idx := v - 1
	return distPhase(idx / p.phaseLen), idx % p.phaseLen, true
}

// startPhase begins the interactive consistency of the given phase with
// this processor's private value.
func (p *DistProcessor) startPhase(phase distPhase, pulse int) {
	p.phaseSpan.End() // a clock restart can abandon a phase mid-flight
	p.phaseSpan = obs.DefaultTracer.Begin(phaseSpanNames[phase], "phase", int64(p.id), int64(pulse))
	p.ic.Reset(p.privateValue(phase))
	p.icActive = true
	p.icPhase = phase
	p.icPulse = 0
	p.completed[phase] = false
}

// noOutcome is the outcome claim of a processor with no previous play.
var noOutcome = bap.Value("none")

// privateValue computes what this processor contributes to each phase: a
// view of its encode buffer, which the engine copies, or nothing.
func (p *DistProcessor) privateValue(phase distPhase) bap.Value {
	switch phase {
	case phaseOutcome:
		if p.prev == nil {
			return noOutcome
		}
		p.enc = AppendProfile(p.enc[:0], p.prev)
		return p.enc

	case phaseCommit:
		action := p.behavior.Choose(p.round, p.prevFor())
		var src prng.Source
		src.Seed(agentStreamState(p.seed, p.id, p.round))
		p.enc = audit.AppendAction(p.enc[:0], action)
		digest := commit.CommitInto(&src, p.enc, &p.myOpening)
		p.enc = AppendDigest(p.enc[:0], digest)
		return p.enc

	case phaseReveal:
		if p.behavior.Withhold != nil && p.behavior.Withhold(p.round) {
			return nil
		}
		op := p.myOpening
		if p.behavior.TamperOpening != nil {
			op = p.behavior.TamperOpening(p.round, op.Clone())
		}
		p.enc = AppendOpening(p.enc[:0], op)
		return p.enc

	case phaseVerdict:
		if p.localAudit() != nil {
			return nil
		}
		p.guilty = p.verdict.AppendGuilty(p.guilty[:0])
		p.enc = AppendFoulSet(p.enc[:0], p.guilty)
		return p.enc
	}
	return nil
}

// prevFor returns the previous outcome to hand the behaviour's Choose hook:
// a scratch copy, so the hook cannot reach the replica's own state. The
// slice is only valid during the call.
func (p *DistProcessor) prevFor() game.Profile {
	prev := p.lastOutcome()
	if prev == nil {
		return nil
	}
	p.prevView = append(p.prevView[:0], prev...)
	return p.prevView
}

// finishPhase consumes an agreed vector, parsing its values in place.
func (p *DistProcessor) finishPhase(phase distPhase, vector []bap.Value, pulse int) {
	if vector == nil {
		return
	}
	p.completed[phase] = true
	switch phase {
	case phaseOutcome:
		// Majority claim wins; the vector is identical at every honest
		// processor, so the (deterministic) choice is too.
		claim := majorityValue(vector)
		p.prev = nil
		if bytes.Equal(claim, noOutcome) {
			return
		}
		prof, err := ParseProfile(p.prevBuf, claim, p.n)
		p.prevBuf = prof
		if err == nil {
			p.prev = prof
		}

	case phaseCommit:
		for i := range p.digests {
			p.digests[i] = commit.Digest{}
		}
		for i, v := range vector {
			if d, err := ParseDigest(v); err == nil {
				p.digests[i] = d
			}
		}
		p.haveDigests = true

	case phaseReveal:
		for i := range p.openings {
			p.openings[i] = commit.Opening{Value: p.openings[i].Value[:0]}
			p.revealed[i] = false
		}
		for i, v := range vector {
			if len(v) > 0 {
				p.revealed[i] = ParseOpening(&p.openings[i], v) == nil
			}
		}
		p.haveOpenings = true

	case phaseVerdict:
		p.finishPlay(vector, pulse)
	}
}

// errNoEvidence marks an audit attempted before both evidence phases of
// the play have been agreed (after a corruption or a clock restart).
var errNoEvidence = errors.New("core: no agreed evidence for this play")

// localAudit runs the judicial check over the agreed evidence into the
// processor's verdict and actions scratch. It is a pure function of
// Byzantine-agreed data, so every honest processor computes the same
// verdict.
func (p *DistProcessor) localAudit() error {
	if !p.haveDigests || !p.haveOpenings {
		return errNoEvidence
	}
	ev := audit.PlayEvidence{
		Round:       p.round,
		PrevOutcome: p.lastOutcome(),
		Commitments: p.digests,
		Openings:    p.openings,
		Revealed:    p.revealed,
	}
	p.verdict.Fouls = p.verdict.Fouls[:0]
	return audit.PerRoundInto(p.g, ev, p.actions, &p.verdict)
}

// lastOutcome returns the previous play's outcome, or nil when prev is
// not a legitimate profile of the game: a transient fault scrambles it,
// and a Byzantine outcome claim can win the majority while clocks
// converge. Every consumer then treats the play as a first play
// (self-stabilization over strictness — the next wrap re-agrees
// everything) instead of indexing the game with an action it lacks.
func (p *DistProcessor) lastOutcome() game.Profile {
	if p.prev != nil && game.ValidateProfile(p.g, p.prev) != nil {
		return nil
	}
	return p.prev
}

// finishPlay applies the agreed verdict, publishes the outcome, punishes,
// and advances to the next play.
func (p *DistProcessor) finishPlay(verdictVector []bap.Value, pulse int) {
	// Strong-majority foul set: during convergence chaos there is no
	// n−f support, so no one gets punished on garbage.
	foulClaim, support := majorityWithCount(verdictVector)
	p.guilty = p.guilty[:0]
	if support >= p.n-p.f {
		p.guilty, _ = ParseFoulSet(p.guilty, foulClaim)
	}
	// Outcome: established actions, with executive substitutions for
	// convicted or unestablished agents.
	if p.localAudit() != nil {
		return // no evidence (corruption); next wrap restarts cleanly
	}
	for i := range p.convicted {
		p.convicted[i] = false
	}
	for _, id := range p.guilty {
		if id >= 0 && id < p.n {
			p.convicted[id] = true
			_ = p.scheme.Punish(id, p.round, 1)
		}
	}
	prev := p.lastOutcome()
	r := p.nextResult()
	r.Pulse = pulse
	r.Outcome = r.Outcome[:0]
	for i := 0; i < p.n; i++ {
		a := 0
		if p.actions[i] >= 0 && !p.convicted[i] && !p.scheme.Excluded(i) {
			a = p.actions[i]
		} else if prev != nil {
			// Executive restriction/substitution.
			a = game.BestResponse(p.g, i, prev)
		}
		r.Outcome = append(r.Outcome, a)
	}
	r.Guilty = append(r.Guilty[:0], p.guilty...)
	p.prevBuf = append(p.prevBuf[:0], r.Outcome...)
	p.prev = p.prevBuf
	p.round++
	p.haveDigests, p.haveOpenings = false, false
}

// Corrupt implements sim.Corruptible: scrambles every piece of state the
// transient-fault adversary can reach. The punish replica is rebuilt fresh
// (see the package comment on the §4 executive remark).
func (p *DistProcessor) Corrupt(entropy func() uint64) {
	p.clock.Corrupt(entropy)
	p.icActive = false
	p.icPulse = int(entropy() % 7)
	p.icPhase = distPhase(entropy() % uint64(numPhases))
	p.round = int(entropy() % 13)
	p.haveDigests, p.haveOpenings = false, false
	p.prev = nil
	if entropy()&1 == 0 {
		p.prevBuf = p.prevBuf[:0]
		for i := 0; i < p.n; i++ {
			p.prevBuf = append(p.prevBuf, int(entropy()%7))
		}
		p.prev = p.prevBuf
	}
	p.played = 0
	p.scheme = p.scheme.Fresh()
}

// majorityValue returns the most frequent value (ties → lexicographically
// smallest bytes), deterministic across processors given identical
// vectors.
func majorityValue(vector []bap.Value) bap.Value {
	v, _ := majorityWithCount(vector)
	return v
}

// majorityWithCount is mapless (vectors are n-sized, so the quadratic count
// is cheaper than a map and allocation-free on the play hot path).
func majorityWithCount(vector []bap.Value) (bap.Value, int) {
	var best bap.Value
	bestCount := -1
	for _, v := range vector {
		c := 0
		for _, w := range vector {
			if bytes.Equal(w, v) {
				c++
			}
		}
		if c > bestCount || (c == bestCount && bytes.Compare(v, best) < 0) {
			best, bestCount = v, c
		}
	}
	return best, bestCount
}

// --- Distributed session harness ---------------------------------------------

// DistSession wires n DistProcessors over a full mesh. It is also the
// distributed kind's engine behind NewSession, whose step pulses the
// network until the first honest processor completes its next play.
type DistSession struct {
	Net    *sim.Network
	Procs  []*DistProcessor
	Honest []int

	// Engine state, set by NewSession: pulse is one network pulse on the
	// engine poolMinProcs selects; budget bounds the pulses one play may
	// take; seen counts the plays read from the first honest processor
	// and lastPulse is the pulse of the last one; cumCost sums the agreed
	// outcomes' costs; hub receives clock-recovery events.
	pulse     func()
	budget    int
	seen      int
	lastPulse int
	cumCost   []float64
	hub       *observerHub
}

// NewDistSession builds the distributed authority network. behaviors[i] may
// be nil for an honest best-response agent. byz installs network-level
// adversaries (message tampering) on top of behavioural cheats.
func NewDistSession(n, f int, g game.Game, behaviors []*Agent, seed uint64, byz map[int]sim.Adversary) (*DistSession, error) {
	return NewDistSessionWith(n, f, g, behaviors, seed, byz, nil)
}

// NewDistSessionWith is NewDistSession with an explicit punishment scheme
// prototype: every processor's executive replica gets its own Fresh() copy
// (a shared instance would double-count offences across replicas). A nil
// scheme defaults to one-strike disconnection.
func NewDistSessionWith(n, f int, g game.Game, behaviors []*Agent, seed uint64, byz map[int]sim.Adversary, scheme punish.Scheme) (*DistSession, error) {
	if len(behaviors) != n {
		return nil, fmt.Errorf("%w: %d behaviours for %d processors", ErrConfig, len(behaviors), n)
	}
	if scheme == nil {
		scheme = punish.NewDisconnect(n, 0)
	}
	g = game.Accelerate(g)
	procs := make([]sim.Process, n)
	raw := make([]*DistProcessor, n)
	for i := 0; i < n; i++ {
		b := behaviors[i]
		if b == nil {
			b = HonestPure(g, i)
		}
		dp, err := NewDistProcessor(i, n, f, g, b, scheme.Fresh(), seed)
		if err != nil {
			return nil, err
		}
		raw[i] = dp
		procs[i] = dp
	}
	nw, err := sim.NewNetwork(procs, nil)
	if err != nil {
		return nil, err
	}
	var honest []int
	for i := 0; i < n; i++ {
		if adv, bad := byz[i]; bad {
			nw.SetByzantine(i, adv)
		} else {
			honest = append(honest, i)
		}
	}
	return &DistSession{Net: nw, Procs: raw, Honest: honest}, nil
}

// ref is the processor whose view the session reports (the first honest
// one), or nil when every processor is Byzantine.
func (s *DistSession) ref() *DistProcessor {
	if len(s.Honest) == 0 {
		return nil
	}
	return s.Procs[s.Honest[0]]
}

// Excluded reports whether the first honest processor's executive replica
// excludes agent i.
func (s *DistSession) Excluded(i int) bool {
	ref := s.ref()
	return ref != nil && ref.Excluded(i)
}

// CumulativeCost returns agent i's total cost on the elected game over the
// agreed outcomes of the plays NewSession's driver has read.
func (s *DistSession) CumulativeCost(i int) float64 { return s.cumCost[i] }

// step is the distributed engine's play (see engine): it pulses the
// network until the reference processor completes its next play, within
// the pulse budget, and reports a clock recovery when the play lands more
// than one period after the previous one. The result carries the agreed
// foul set as Convicted and no verdict detail.
func (s *DistSession) step(ctx context.Context, res *RoundResult) error {
	ref := s.ref()
	if ref == nil {
		return fmt.Errorf("%w: no honest processors to observe", ErrConfig)
	}
	// A transient fault wipes processor histories; re-anchor the cursor.
	if c := ref.ResultCount(); c < s.seen {
		s.seen = c
	}
	for steps := 0; ref.ResultCount() <= s.seen; steps++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if steps >= s.budget {
			return fmt.Errorf("%w (budget %d pulses)", ErrPulseBudget, s.budget)
		}
		s.pulse()
	}
	r := ref.resultRef(s.seen)
	s.seen++
	period := PulsesPerPlay(ref.f)
	if gap := r.Pulse - s.lastPulse; s.lastPulse > 0 && gap > period && s.hub.active() {
		s.hub.emit(Event{
			Kind:   EventClockRecovery,
			Round:  res.Round,
			Pulse:  r.Pulse,
			Detail: fmt.Sprintf("play completed after a %d-pulse gap (one period is %d)", gap, period),
		})
	}
	s.lastPulse = r.Pulse
	res.Outcome, res.Convicted, res.Pulse = r.Outcome, r.Guilty, r.Pulse
	// Per-agent cost of the agreed outcome on the elected game — the
	// value the profit auditor compares across honest/deviant twins.
	res.Costs = res.Costs[:0]
	for i := range s.cumCost {
		c := ref.g.Cost(i, r.Outcome)
		res.Costs = append(res.Costs, c)
		s.cumCost[i] += c
	}
	return nil
}

func (s *DistSession) kindStats(st *SessionStats) {
	st.Pulses, st.Messages = int64(s.Net.Stats.Pulses), s.Net.Stats.MessagesSent
	if s.ref() == nil {
		st.Excluded = nil
	}
}

// finish releases the pulse engine's worker pool (n ≥ poolMinProcs).
func (s *DistSession) finish() (audit.Verdict, error) {
	s.Net.Close()
	return audit.Verdict{}, nil
}

// RunPlays advances the network by the given number of complete plays.
func (s *DistSession) RunPlays(plays int) {
	f := s.Procs[0].f
	s.Net.Run(plays * PulsesPerPlay(f))
}

// ConsistentResults checks that all honest processors recorded identical
// plays — pulse, outcome and foul set — over their last `plays` results,
// comparing the processors' result rings in place; it returns an error
// describing the first divergence. It never checks fewer plays than
// asked: asking for more than resultRing plays, or for more than an honest
// processor has completed since its last fault, is an error.
func (s *DistSession) ConsistentResults(plays int) error {
	if plays > resultRing {
		return fmt.Errorf("core: cannot compare the last %d plays: a processor retains only its last %d", plays, resultRing)
	}
	if len(s.Honest) == 0 {
		return nil
	}
	for _, id := range s.Honest {
		if c := s.Procs[id].ResultCount(); c < plays {
			return fmt.Errorf("core: proc %d completed %d plays since its last fault, fewer than the %d to compare", id, c, plays)
		}
	}
	ref := s.Procs[s.Honest[0]]
	for _, id := range s.Honest[1:] {
		p := s.Procs[id]
		for k := 0; k < plays; k++ {
			got, want := p.resultRef(p.played-plays+k), ref.resultRef(ref.played-plays+k)
			if got.Pulse != want.Pulse || !slices.Equal(got.Outcome, want.Outcome) {
				return fmt.Errorf("core: play %d diverges: proc %d %v@%d vs proc %d %v@%d",
					k, id, got.Outcome, got.Pulse, s.Honest[0], want.Outcome, want.Pulse)
			}
			if !slices.Equal(got.Guilty, want.Guilty) {
				return fmt.Errorf("core: play %d verdicts diverge: %v vs %v", k, got.Guilty, want.Guilty)
			}
		}
	}
	return nil
}
