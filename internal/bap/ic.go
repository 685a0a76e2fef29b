package bap

// This file is the interactive-consistency (vector agreement) engine the
// distributed driver runs in every phase of a play (§3.3: outcomes,
// commitment sets, reveal sets, foul sets): one dissemination pulse, then
// all n EIG instances in lock-step, as a resettable state machine over
// pre-sized arenas so that the pulse hot path does not allocate:
//
//   - the n EIG instances are allocated once per processor and Reset per
//     phase (flat arrays over the shared (n, f) layout — see eig.go);
//   - values are interned per phase into a pool the engine owns (pool.go),
//     so the trees and the pairs in transit hold 4-byte ids, and a message
//     carries a view of the sender's pool instead of copies of its bytes;
//   - outbound payloads are pointers into rotating slabs, so boxing them
//     into the carrier message's []any does not allocate;
//   - one round message per pulse carries every instance's pairs, so a
//     receiver handles each sender once a pulse;
//   - every destination receives the identical broadcast, so one shared
//     payload list per pulse serves all n carrier messages.
//
// The engine is message-passive: the carrier protocol (core's distMsg)
// calls Deliver for each inbound payload and then EndPulse once per
// network pulse.

// TotalPulses returns the number of pulses interactive consistency needs:
// one dissemination pulse, f+1 EIG rounds, and one final absorb pulse.
func TotalPulses(f int) int { return Rounds(f) + 2 }

// icSlabRounds is how many pulses an emitted payload must stay untouched
// before its slab slot is reused: one pulse in transit, one being read,
// one of slack for replaying adversaries (same bound as the carrier's).
// The value pools rotate over as many Resets: a Reset happens at most once
// a pulse, so a pool is rewritten no sooner than a slab slot would be.
const icSlabRounds = 3

// icIntro is the dissemination-pulse payload: the sender's private value,
// a view of its pool's bytes. Pointer-typed on the wire so emitting it is
// heap-free.
type icIntro struct {
	Val []byte
}

// icRoundMsg is one EIG round broadcast of all n instances, pointer-typed
// on the wire: instance s's pairs are Pairs[Starts[s]:Starts[s+1]], both
// slices of per-pulse arenas. A pair's Val is an id of the sender's pool,
// which Vals views.
type icRoundMsg struct {
	Round  int
	Starts []int32
	Pairs  []Pair
	Vals   poolView
}

// IC is the reusable interactive-consistency engine: build once per
// processor with NewIC, then Reset(private) at the start of every phase.
// Between Reset and Done, call Deliver for each payload received from the
// network and then EndPulse exactly once per pulse; EndPulse returns the
// shared payload list to broadcast (nil once the vector is decided).
type IC struct {
	id, n, f int
	private  uint32
	pulseNo  int
	done     bool
	insts    []*EIG
	heard    []uint32
	heardSet []bool
	vector   []Value

	// pools rotate over icSlabRounds Resets; pool is this phase's, and
	// resets, the Resets so far, is the gen its views carry. trans[s]
	// maps sender s's pool ids to this phase's, built the first time a
	// view of that pool arrives and extended as the view grows; transGen[s]
	// is the gen it was built for (0: none yet this phase).
	pools    [icSlabRounds]valuePool
	pool     *valuePool
	resets   uint64
	trans    [][]uint32
	transGen []uint64

	// Rotating outbound arenas, indexed by network pulse % icSlabRounds.
	intros [icSlabRounds]icIntro
	rounds [icSlabRounds]icRoundMsg
	inner  [icSlabRounds][]any
	pairs  [icSlabRounds][]Pair
	starts [icSlabRounds][]int32 // per-instance offsets into the slot's pairs
}

// NewIC builds the engine for processor id at shape (n, f). The returned
// engine is idle until the first Reset.
func NewIC(id, n, f int) (*IC, error) {
	ic := &IC{id: id, n: n, f: f, done: true}
	ic.insts = make([]*EIG, n)
	for s := 0; s < n; s++ {
		inst, err := NewEIG(id, n, f, 0)
		if err != nil {
			return nil, err
		}
		ic.insts[s] = inst
	}
	ic.heard = make([]uint32, n)
	ic.heardSet = make([]bool, n)
	ic.vector = make([]Value, n)
	for i := range ic.pools {
		ic.pools[i] = newValuePool(n + 1)
	}
	ic.pool = &ic.pools[0]
	ic.trans = make([][]uint32, n)
	ic.transGen = make([]uint64, n)
	maxPairs := n * ic.insts[0].MaxRoundPairs()
	for i := 0; i < icSlabRounds; i++ {
		ic.inner[i] = make([]any, 0, 1)
		ic.pairs[i] = make([]Pair, 0, maxPairs)
		ic.starts[i] = make([]int32, n+1)
	}
	return ic, nil
}

// Reset rewinds the engine to the start of a fresh agreement on private,
// reusing every backing array. private is copied into the engine, so the
// caller may overwrite it as soon as Reset returns.
func (ic *IC) Reset(private Value) {
	ic.resets++
	ic.pool = &ic.pools[ic.resets%icSlabRounds]
	ic.pool.reset()
	ic.private = ic.pool.intern(private)
	ic.pulseNo = 0
	ic.done = false
	clear(ic.heard)
	clear(ic.heardSet)
	clear(ic.transGen)
	for s := range ic.trans {
		ic.trans[s] = ic.trans[s][:0]
	}
}

// Deliver ingests one payload received from processor `from` this pulse.
// Payloads from the wrong pulse position (stale rounds, pre-dissemination
// traffic) are dropped.
func (ic *IC) Deliver(from int, payload any) {
	if ic.done || from < 0 || from >= ic.n {
		return
	}
	switch ic.pulseNo {
	case 0:
		// The dissemination pulse ignores its inbox.
	case 1:
		if m, ok := payload.(*icIntro); ok && !ic.heardSet[from] {
			ic.heardSet[from] = true
			ic.heard[from] = ic.pool.intern(m.Val)
		}
	default:
		round := ic.pulseNo - 2
		m, ok := payload.(*icRoundMsg)
		if !ok || m.Round != round || len(m.Starts) != ic.n+1 {
			return
		}
		ids := ic.translate(from, &m.Vals)
		for s, inst := range ic.insts {
			// A forged range is dropped like a bad node index.
			if lo, hi := m.Starts[s], m.Starts[s+1]; 0 <= lo && lo <= hi && int(hi) <= len(m.Pairs) {
				inst.Absorb(round, from, m.Pairs[lo:hi], ids)
			}
		}
	}
}

// translate returns the map from the ids of v, a view of sender from's
// pool, to this phase's ids: each sender id is interned once per (sender,
// pool), so after the first message a pair costs an index lookup.
func (ic *IC) translate(from int, v *poolView) []uint32 {
	t := ic.trans[from]
	if ic.transGen[from] != v.gen {
		t, ic.transGen[from] = t[:0], v.gen
	}
	for id := len(t); id < len(v.ends); id++ {
		if b, ok := v.span(id); ok {
			t = append(t, ic.pool.intern(b))
		} else {
			t = append(t, noID)
		}
	}
	ic.trans[from] = t
	return t[:len(v.ends)]
}

// EndPulse completes one network pulse after all Delivers: it advances the
// protocol state machine and returns the payload list to broadcast (the
// same list goes to every destination) plus the done flag. pulse is the
// monotonic network pulse number, used only to rotate the outbound arenas.
func (ic *IC) EndPulse(pulse int) ([]any, bool) {
	slot := pulse % icSlabRounds
	switch {
	case ic.done:
		return nil, true

	case ic.pulseNo == 0:
		// Dissemination pulse: broadcast the private value.
		ic.pulseNo = 1
		ic.intros[slot] = icIntro{Val: ic.pool.value(ic.private)}
		list := append(ic.inner[slot][:0], &ic.intros[slot])
		ic.inner[slot] = list
		return list, false

	case ic.pulseNo == 1:
		// Instances start: instance s's initial value is what we heard
		// from s (the empty value if silent).
		for s := 0; s < ic.n; s++ {
			ic.insts[s].Reset(ic.heard[s])
		}
		ic.pulseNo = 2
		return ic.broadcastRound(0, slot), false

	default:
		round := ic.pulseNo - 2 // EIG round completed by this pulse's inbox
		for _, inst := range ic.insts {
			if !inst.Decided() {
				inst.EndRound()
			}
		}
		if ic.insts[0].Decided() {
			for s, inst := range ic.insts {
				v, err := inst.Decision()
				if err != nil {
					v = 0
				}
				ic.vector[s] = ic.pool.value(v)
			}
			ic.done = true
			return nil, true
		}
		ic.pulseNo++
		return ic.broadcastRound(round+1, slot), false
	}
}

// broadcastRound gathers every instance's round pairs into the slot's
// arena, instance by instance, and issues the slot's one round message:
// the arena is pre-sized to n × MaxRoundPairs, so it is sliced only once
// fully built, and a growth (which should not happen) could never dangle.
func (ic *IC) broadcastRound(round, slot int) []any {
	pairs, starts := ic.pairs[slot][:0], ic.starts[slot]
	for s, inst := range ic.insts {
		starts[s] = int32(len(pairs))
		pairs = inst.AppendRoundMessages(round, pairs)
	}
	starts[ic.n] = int32(len(pairs))
	ic.pairs[slot] = pairs
	ic.rounds[slot] = icRoundMsg{Round: round, Starts: starts, Pairs: pairs[:len(pairs):len(pairs)], Vals: ic.pool.view(ic.resets)}
	list := append(ic.inner[slot][:0], &ic.rounds[slot])
	ic.inner[slot] = list
	return list
}

// Done reports whether the vector has been decided since the last Reset.
func (ic *IC) Done() bool { return ic.done }

// VectorRef returns the agreed vector without copying: its values are
// views of the engine's pool. It is valid only while Done() and until the
// next Reset. Callers must not retain it.
func (ic *IC) VectorRef() []Value {
	if !ic.done {
		return nil
	}
	return ic.vector
}
