package hub

import (
	"testing"

	"gameauthority/internal/core"
)

// TestFeedLagAtTheGap drives Feed with a subscriber that takes every
// other event: each dropped event is counted once, its lag rides on the
// very next event that fits, and cancel stops delivery.
func TestFeedLagAtTheGap(t *testing.T) {
	var emit core.Observer
	unsubscribed := false
	subscribe := func(o core.Observer) func() {
		emit = o
		return func() { unsubscribed = true }
	}
	type got struct{ round, lag int }
	var delivered []got
	take := true
	cancel := Feed(subscribe, func(ev core.Event, lag uint64) bool {
		if !take {
			return false
		}
		delivered = append(delivered, got{ev.Round, int(lag)})
		return true
	})
	before := eventsDropped.Value()
	for round, fits := range []bool{true, false, false, true, true, false, true} {
		take = fits
		emit.OnEvent(core.Event{Round: round})
	}
	want := []got{{0, 0}, {3, 2}, {4, 0}, {6, 1}}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivered %v, want %v", delivered, want)
		}
	}
	if n := eventsDropped.Value() - before; n != 3 {
		t.Fatalf("events_dropped_total moved by %d, want 3", n)
	}
	cancel()
	take = true
	emit.OnEvent(core.Event{Round: 7})
	if !unsubscribed || len(delivered) != len(want) {
		t.Fatalf("after cancel: unsubscribed %v, delivered %v", unsubscribed, delivered)
	}
}
