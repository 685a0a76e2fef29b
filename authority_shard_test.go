package gameauthority

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAuthorityShardedStress hammers the sharded registry from many
// goroutines mixing every registry verb — Create, Get, Play, Remove,
// Host, Sessions, Len — over a shared ID space, so the race detector sees
// every lock interleaving the sharding introduced. Functional invariants:
// no operation may observe a torn registry (Get after a successful Create
// must succeed until some Remove wins it), and the final Len must equal
// creates − removes.
func TestAuthorityShardedStress(t *testing.T) {
	a := NewAuthority()
	defer a.Close()

	const (
		workers = 16
		rounds  = 60
		idSpace = 40 // shared IDs → plenty of cross-goroutine collisions
	)
	var created, removed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("stress-%d", (w*rounds+r*7)%idSpace)
				h, err := a.Create(id, PrisonersDilemma(), WithSeed(uint64(w)), WithHistoryLimit(4))
				switch {
				case err == nil:
					created.Add(1)
					if _, err := h.Play(ctx); err != nil {
						report(fmt.Errorf("play %s: %w", id, err))
					}
					got, err := a.Get(id)
					// A concurrent Remove may have won the ID; any other
					// failure means the registry tore.
					if err != nil && !errors.Is(err, ErrSessionNotFound) {
						report(fmt.Errorf("get %s: %w", id, err))
					}
					if err == nil && got.ID() != id {
						report(fmt.Errorf("get %s returned id %s", id, got.ID()))
					}
					if err := a.Remove(id); err == nil {
						removed.Add(1)
					} else if !errors.Is(err, ErrSessionNotFound) {
						report(fmt.Errorf("remove %s: %w", id, err))
					}
				case errors.Is(err, ErrSessionExists):
					// Lost the race; play whoever holds the ID instead. The
					// winner may Remove it under us: a handle that outlives
					// its session's Remove returns ErrClosed (or
					// ErrSessionNotFound once routing misses), which is the
					// documented contract, not a torn registry.
					if h, err := a.Get(id); err == nil {
						if _, err := h.Play(ctx); err != nil &&
							!errors.Is(err, ErrClosed) && !errors.Is(err, ErrSessionNotFound) {
							report(fmt.Errorf("play loser %s: %w", id, err))
						}
					}
				default:
					report(fmt.Errorf("create %s: %w", id, err))
				}
				if r%16 == 0 {
					// Auto-assigned IDs exercise the counter path concurrently.
					h, err := a.Create("", CoordinationGame(), WithSeed(uint64(r)))
					if err != nil {
						report(fmt.Errorf("auto create: %w", err))
						continue
					}
					created.Add(1)
					if err := a.Remove(h.ID()); err != nil {
						report(fmt.Errorf("auto remove %s: %w", h.ID(), err))
					} else {
						removed.Add(1)
					}
				}
				if r%8 == 0 {
					for _, h := range a.Sessions() {
						_ = h.Stats()
					}
					_ = a.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := a.Len(), int(created.Load()-removed.Load()); got != want {
		t.Fatalf("Len() = %d after %d creates − %d removes, want %d",
			got, created.Load(), removed.Load(), want)
	}
}

// TestAuthorityAutoIDSkipsHandRegistered pins the auto-assignment loop:
// hand-hosting an ID ahead of the counter must be skipped, not clobbered
// and not an error.
func TestAuthorityAutoIDSkipsHandRegistered(t *testing.T) {
	a := NewAuthority()
	defer a.Close()

	s, err := New(PrisonersDilemma())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Host("s-1", s); err != nil {
		t.Fatal(err)
	}
	h, err := a.Create("", CoordinationGame())
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "s-1" {
		t.Fatalf("auto-assigned ID clobbered the hand-registered session")
	}
	if h.ID() != "s-2" {
		t.Fatalf("auto ID = %s, want s-2 (skip past the taken s-1)", h.ID())
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

// TestAuthoritySessionsSortedAcrossShards pins that the listing stays
// ID-sorted even though sessions now live in many shard maps.
func TestAuthoritySessionsSortedAcrossShards(t *testing.T) {
	a := NewAuthority()
	defer a.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if _, err := a.Create(fmt.Sprintf("z-%02d", i), PrisonersDilemma()); err != nil {
			t.Fatal(err)
		}
	}
	list := a.Sessions()
	if len(list) != n {
		t.Fatalf("Sessions() returned %d entries, want %d", len(list), n)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID() >= list[i].ID() {
			t.Fatalf("Sessions() not sorted: %s ≥ %s", list[i-1].ID(), list[i].ID())
		}
	}
}
