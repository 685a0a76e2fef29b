package hub

import (
	"reflect"
	"testing"
)

// TestHubPlayIsOnePlayN proves a k-round MsgPlay reaches the session as
// one PlayN(k) call — one session lock, one WAL record — never k calls.
func TestHubPlayIsOnePlayN(t *testing.T) {
	backend, client := newHubClient(t)
	ref, id, err := client.Create([]byte(`{"id":"bh-1"}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	out, err := client.Play(ref, 4)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if out.Completed != 4 || out.LastRound != 3 {
		t.Fatalf("Play → %+v", out)
	}
	if out, err = client.Play(ref, 1); err != nil || out.LastRound != 4 {
		t.Fatalf("single play after a batch → %+v, %v", out, err)
	}
	backend.mu.Lock()
	inner := backend.sessions[id]
	backend.mu.Unlock()
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if inner.rounds != 5 {
		t.Fatalf("session at round %d, want 5", inner.rounds)
	}
	if want := []int{4, 1}; !reflect.DeepEqual(inner.playNCalls, want) {
		t.Fatalf("PlayN calls %v, want %v", inner.playNCalls, want)
	}
}
