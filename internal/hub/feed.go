package hub

import (
	"sync"

	"gameauthority/internal/core"
	"gameauthority/internal/obs"
)

// eventsDropped counts the events a full subscriber dropped, on every
// transport that subscribes through Feed.
var eventsDropped = obs.NewCounter("gameauthority_events_dropped_total",
	"Events dropped for slow streaming subscribers.")

// Feed subscribes offer to a session's events under the one drop-and-lag
// policy every event subscriber shares (/ws, SSE and ga.Events). offer
// tries to enqueue ev without blocking and reports whether it fit; lag is
// the number of events dropped since the last one that fit, so a
// transport that tells its reader about gaps delivers the lag notice
// immediately before ev. An event that does not fit is dropped, counted in
// gameauthority_events_dropped_total, and owed to the next one that fits.
// offer runs on the emitting play's goroutine, one event at a time, and is
// never called again once cancel returns.
func Feed(subscribe func(core.Observer) func(), offer func(ev core.Event, lag uint64) bool) (cancel func()) {
	var (
		mu     sync.Mutex
		lag    uint64
		closed bool
	)
	unsubscribe := subscribe(core.ObserverFunc(func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		if offer(ev, lag) {
			lag = 0
			return
		}
		lag++
		eventsDropped.Inc()
	}))
	return func() {
		unsubscribe()
		mu.Lock()
		closed = true
		mu.Unlock()
	}
}
