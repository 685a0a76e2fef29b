package core

import (
	"sync"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
)

// EventKind classifies session events for the observer stream.
type EventKind int

// Session event kinds.
const (
	// EventPlay is emitted after every completed play.
	EventPlay EventKind = iota + 1
	// EventVerdict is emitted when the judicial service issues a verdict
	// with at least one foul.
	EventVerdict
	// EventConviction is emitted when the executive service newly excludes
	// an agent.
	EventConviction
	// EventElection is emitted when the legislative service elects the
	// game. It is sticky: late subscribers receive it on subscription.
	EventElection
	// EventClockRecovery is emitted by the distributed driver when a play
	// lands after a pulse gap larger than one protocol period — the
	// self-stabilizing clock has re-converged after a transient fault.
	EventClockRecovery
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPlay:
		return "play"
	case EventVerdict:
		return "verdict"
	case EventConviction:
		return "conviction"
	case EventElection:
		return "election"
	case EventClockRecovery:
		return "clock-recovery"
	default:
		return "unknown"
	}
}

// Event is one entry in a session's observer stream. Only the fields
// relevant to Kind are set.
type Event struct {
	Kind EventKind
	// Seq is the session-scoped sequence number stamped at emit time:
	// strictly increasing from 1 across every event the session publishes.
	// Subscribers that resume after a disconnect use it to tell replayed
	// events from new ones. (Sticky election replays keep their original
	// stamp, so a fresh subscriber may see an old seq first.)
	Seq   uint64
	Round int
	// Outcome is the published profile (EventPlay).
	Outcome game.Profile
	// Costs are the per-agent costs of the play (EventPlay, when known).
	Costs []float64
	// Fouls are the judicial findings (EventVerdict).
	Fouls []audit.Foul
	// Agent is the newly excluded agent (EventConviction).
	Agent int
	// Winner is the elected candidate index (EventElection).
	Winner int
	// Pulse is the network pulse of the play (distributed driver).
	Pulse int
	// Detail is a human-readable annotation.
	Detail string
}

// Observer receives session events. Implementations must not call back
// into the session that delivered the event.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// observerHub fans session events out to subscribers. Sticky events
// (elections) are replayed to late subscribers. The subscriber map is made
// on the first subscribe: most sessions never have one.
type observerHub struct {
	mu     sync.Mutex
	subs   map[int]Observer
	next   int
	seq    uint64
	sticky []Event
}

// subscribe registers o and returns a cancel function. Sticky events are
// delivered synchronously before subscribe returns.
func (h *observerHub) subscribe(o Observer) func() {
	h.mu.Lock()
	id := h.next
	h.next++
	if h.subs == nil {
		h.subs = make(map[int]Observer)
	}
	h.subs[id] = o
	replay := append([]Event(nil), h.sticky...)
	h.mu.Unlock()
	for _, e := range replay {
		o.OnEvent(e)
	}
	return func() {
		h.mu.Lock()
		delete(h.subs, id)
		h.mu.Unlock()
	}
}

// active reports whether anyone is subscribed. Drivers use it to skip
// event assembly (and its allocations) on unobserved sessions.
func (h *observerHub) active() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// emit stamps e with the next session sequence number and delivers it to
// every current subscriber (outside the hub lock).
func (h *observerHub) emit(e Event) {
	h.mu.Lock()
	h.seq++
	e.Seq = h.seq
	if e.Kind == EventElection {
		h.sticky = append(h.sticky, e)
	}
	targets := make([]Observer, 0, len(h.subs))
	for _, o := range h.subs {
		targets = append(targets, o)
	}
	h.mu.Unlock()
	for _, o := range targets {
		o.OnEvent(e)
	}
}
