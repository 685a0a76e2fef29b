package gameauthority

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"gameauthority/internal/game"
)

// internEntry reads the intern table's entry for key (zero when absent).
func internEntry(key gameKey) weak.Pointer[game.Compiled] {
	compiledGames.Lock()
	defer compiledGames.Unlock()
	return compiledGames.m[key]
}

func internLen() int {
	compiledGames.Lock()
	defer compiledGames.Unlock()
	return len(compiledGames.m)
}

// collectUntil runs the collector, giving cleanups a moment to run after
// each cycle, until done holds or a bounded number of cycles has passed.
func collectUntil(done func() bool) bool {
	for i := 0; i < 200 && !done(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return done()
}

// specGame is the game CreateFromSpec would host for req.
func specGame(t *testing.T, req CreateSessionRequest) Game {
	t.Helper()
	g, _, err := req.build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGameInternSharesCanonicalSpecs pins the intern key: specs that
// canonicalize alike get the same *game.Compiled, and specs that build
// different games never do.
func TestGameInternSharesCanonicalSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b CreateSessionRequest
	}{
		{"players 0 vs 4", CreateSessionRequest{Game: "congestion"}, CreateSessionRequest{Game: "congestion", Players: 4}},
		{"name case", CreateSessionRequest{Game: "Congestion"}, CreateSessionRequest{Game: "congestion"}},
		{"minority 4 vs 5", CreateSessionRequest{Game: "minority", Players: 4}, CreateSessionRequest{Game: "minority", Players: 5}},
		{"benefit 0 vs 2", CreateSessionRequest{Game: "publicgoods"}, CreateSessionRequest{Game: "publicgoods", Players: 4, Benefit: 2}},
		{"fixed game ignores size", CreateSessionRequest{Game: "prisonersdilemma", Players: 7, Benefit: 3}, CreateSessionRequest{Game: "PrisonersDilemma"}},
	} {
		ga, gb := specGame(t, tc.a), specGame(t, tc.b)
		if _, ok := ga.(*game.Compiled); !ok {
			t.Errorf("%s: spec built %T, want a shared *game.Compiled", tc.name, ga)
		}
		if ga != gb {
			t.Errorf("%s: two games for one canonical spec", tc.name)
		}
	}
	distinct := []Game{
		specGame(t, CreateSessionRequest{Game: "publicgoods"}),
		specGame(t, CreateSessionRequest{Game: "publicgoods", Players: 5}),
		specGame(t, CreateSessionRequest{Game: "publicgoods", Benefit: 3}),
		specGame(t, CreateSessionRequest{Game: "publicgoods", Players: 5, Benefit: 3}),
		specGame(t, CreateSessionRequest{Game: "minority", Players: 7}),
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if distinct[i] == distinct[j] {
				t.Errorf("specs %d and %d differ in (players, benefit) but share a game", i, j)
			}
		}
	}
}

// TestGameInternSharedAcrossRecover: sessions a recovering host restores
// resolve their spec to the entry the live sessions already use, and keep
// it alive once the crashed host is gone.
func TestGameInternSharedAcrossRecover(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	a := NewAuthority(WithStore(st))
	for i := 0; i < 4; i++ {
		h, err := a.CreateFromSpec(CreateSessionRequest{ID: fmt.Sprintf("r-%d", i), Game: "braess", Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(ctx, 5); err != nil {
			t.Fatal(err)
		}
	}
	key := gameKey{name: "braess", players: 4}
	live := internEntry(key)
	if live.Value() == nil {
		t.Fatal("no live entry for the hosted sessions' game")
	}
	a.DetachStore()
	b := NewAuthority(WithStore(st))
	defer b.Close()
	report, err := b.Recover(ctx)
	if err != nil || report.Sessions != 4 || len(report.Failed) > 0 {
		t.Fatalf("recover: %+v, %v", report, err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the restored sessions can hold the game now: had they compiled
	// their own, the original would be collected and its entry deleted.
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := internEntry(key); got != live || got.Value() == nil {
		t.Fatal("restored sessions do not share the entry the live sessions used")
	}
}

// TestGameInternSkipsUncompilable: a game too large to compile stays a
// per-session game (fuzz seed #24's spec) and still creates and plays.
func TestGameInternSkipsUncompilable(t *testing.T) {
	var req CreateSessionRequest
	if err := json.Unmarshal([]byte(`{"game":"publicgoods","players":17,"distributed":{"n":17,"f":1}}`), &req); err != nil {
		t.Fatal(err)
	}
	if g := specGame(t, req); g == nil {
		t.Fatal("no game")
	} else if _, ok := g.(*game.Compiled); ok {
		t.Fatal("a 17-player game compiled; pick a larger spec for this test")
	}
	if internEntry(gameKey{name: "publicgoods", players: 17, benefit: math.Float64bits(2)}) != (weak.Pointer[game.Compiled]{}) {
		t.Fatal("an uncompilable game was interned")
	}
	a := NewAuthority()
	defer a.Close()
	h, err := a.CreateFromSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Play(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGameInternTableBounded: a client varying a parameter cannot grow
// the table — once its sessions are removed and collected, every entry
// they made is gone.
func TestGameInternTableBounded(t *testing.T) {
	ctx := context.Background()
	a := NewAuthority()
	defer a.Close()
	for i := 0; i < 2000; i++ {
		benefit := 2 + float64(i)/1000
		if i == 0 {
			benefit = math.NaN() // builds, and must not strand its entry
		}
		h, err := a.CreateFromSpec(CreateSessionRequest{Game: "publicgoods", Benefit: benefit, Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Play(ctx); err != nil {
			t.Fatal(err)
		}
		if err := a.Remove(h.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if !collectUntil(func() bool { return internLen() == 0 }) {
		t.Fatalf("intern table holds %d entries after every session was removed and collected", internLen())
	}
}

// TestGameInternHammer creates sessions of one spec from several
// goroutines while others are removed, and collects between rounds, so
// the entry dies and its cleanup runs under the next round's creates: a
// cleanup must never strip a newer entry, and every session must play
// exactly as a twin on its own uncompiled game.
func TestGameInternHammer(t *testing.T) {
	const workers, rounds = 4, 40
	ctx := context.Background()
	key := gameKey{name: "congestion", players: 4}
	entry, _ := ScenarioByName(key.name)

	// The guard itself: a cleanup for a collected predecessor leaves the
	// live entry alone.
	stale, err := entry.Build(key.players)
	if err != nil {
		t.Fatal(err)
	}
	staleCompiled, err := game.Compile(stale, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := specGame(t, CreateSessionRequest{Game: key.name})
	dropGame(key, weak.Make(staleCompiled))
	if internEntry(key).Value() != live {
		t.Fatal("a stale cleanup deleted the live entry")
	}
	live = nil // the rounds below must be free to let the entry die

	a := NewAuthority()
	defer a.Close()
	// session hosts, plays and checks one session against its twin, and
	// removes it unless keep is set.
	session := func(id string, seed uint64, plays int, keep bool) (e weak.Pointer[game.Compiled], err error) {
		req := CreateSessionRequest{ID: id, Game: key.name, Seed: seed, HistoryLimit: 8}
		fresh, err := entry.Build(key.players)
		if err != nil {
			return e, err
		}
		_, opts, err := req.build()
		if err != nil {
			return e, err
		}
		twin, err := New(fresh, opts...)
		if err != nil {
			return e, err
		}
		if _, err := twin.Run(ctx, plays); err != nil {
			return e, err
		}
		h, err := a.CreateFromSpec(req)
		if err != nil {
			return e, err
		}
		// h holds its game, so its entry must be live: only a cleanup that
		// deleted a newer entry could have removed it.
		if e = internEntry(key); e.Value() == nil {
			return e, fmt.Errorf("%s: hosted, but its game has no entry", id)
		}
		if _, err := h.Run(ctx, plays); err != nil {
			return e, err
		}
		if got, want := h.Snapshot().Digest, twin.Snapshot().Digest; got != want {
			return e, fmt.Errorf("%s: digest %.12s, its twin's %.12s", id, got, want)
		}
		if keep {
			return e, nil
		}
		return e, a.Remove(id)
	}

	entries := make(map[weak.Pointer[game.Compiled]]bool)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		seen := make([]weak.Pointer[game.Compiled], workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var err error
				seen[w], err = session(fmt.Sprintf("h-%d-%d", r, w), uint64(r*workers+w)+1, 1+(r+w)%4, r == rounds-1)
				if err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		for _, e := range seen {
			if e != seen[0] {
				t.Errorf("round %d: concurrent creates of one spec hold different games", r)
			}
			entries[e] = true
		}
		runtime.GC() // the cleanup it queues races the next round's creates
	}
	t.Logf("%d creates saw %d successive entries", workers*rounds, len(entries))

	for _, h := range a.Sessions() {
		if err := a.Remove(h.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if !collectUntil(func() bool { return internEntry(key) == (weak.Pointer[game.Compiled]{}) }) {
		t.Fatal("the entry outlived every session of its spec")
	}
}
