package gameauthority_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	ga "gameauthority"
)

// TestAuthorityCloseSyncsStoreAndStaysIdempotent pins the durable close
// contract: Authority.Close fsyncs and closes the store before
// returning, a second Close is a clean no-op, and host shutdown does NOT
// journal session close records — only an explicit HostedSession.Close
// marks a session durably closed. After a graceful restart the
// explicitly-closed session recovers closed, the rest recover playable.
func TestAuthorityCloseSyncsStoreAndStaysIdempotent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := ga.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st))
	sessions := make(map[string]*ga.HostedSession)
	for i, game := range []string{"pd", "congestion"} {
		h, err := a.CreateFromSpec(ga.CreateSessionRequest{
			ID: []string{"close-a", "close-b"}[i], Game: game, Players: 3, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(ctx, 4); err != nil {
			t.Fatal(err)
		}
		sessions[h.ID()] = h
	}
	// close-a ends deliberately (journals a close record); close-b stays
	// live through the shutdown.
	if err := sessions["close-a"].Close(); err != nil {
		t.Fatal(err)
	}

	if err := a.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// The store is fsynced and closed before Close returns.
	if err := st.Sync(); !errors.Is(err, ga.ErrStoreClosed) {
		t.Fatalf("store still open after Authority.Close: err = %v", err)
	}
	// A second (and third) Close stays idempotent: no double-close error
	// from the store, no panic from re-closing sessions.
	if err := a.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("third close: %v", err)
	}

	// Everything journaled before Close is on disk: a fresh store over the
	// same directory recovers both sessions, closed, at their final round.
	st2, err := ga.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := ga.NewAuthority(ga.WithStore(st2))
	defer b.Close()
	report, err := b.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sessions != 2 || len(report.Failed) > 0 {
		t.Fatalf("recovery after graceful close: %+v", report)
	}
	for _, id := range []string{"close-a", "close-b"} {
		h, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Stats().Rounds; got != 4 {
			t.Fatalf("%s recovered at round %d, want 4", id, got)
		}
	}
	// The explicitly-closed session recovered closed (its ledger survives,
	// no further plays run)...
	ha, _ := b.Get("close-a")
	if _, err := ha.Play(ctx); !errors.Is(err, ga.ErrClosed) {
		t.Fatalf("close-a: post-recovery Play on closed session = %v, want ErrClosed", err)
	}
	// ...while the session that merely lived through the shutdown is
	// playable: a restart is not a session close.
	hb, _ := b.Get("close-b")
	if _, err := hb.Play(ctx); err != nil {
		t.Fatalf("close-b bricked by graceful shutdown: %v", err)
	}
}

// TestCreateRemoveRaceNeverLeaksLedger hammers the window where a
// CreateFromSpec is still journaling its spec when a Remove lands: no
// interleaving may leak a ledger for an unhosted session (it would
// resurrect at the next recovery) or strip a hosted session's ledger.
func TestCreateRemoveRaceNeverLeaksLedger(t *testing.T) {
	st := ga.NewMemStore()
	a := ga.NewAuthority(ga.WithStore(st))
	defer a.Close()
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("race-%d", i)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = a.CreateFromSpec(ga.CreateSessionRequest{ID: id, Game: "pd", Seed: uint64(i) + 1})
		}()
		go func() {
			defer wg.Done()
			_ = a.Remove(id)
		}()
		wg.Wait()
		hosted := false
		if _, err := a.Get(id); err == nil {
			hosted = true
		}
		_, journaled, err := st.LoadSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if hosted != journaled {
			t.Fatalf("iteration %d: hosted=%v journaled=%v — ledger %s", i, hosted, journaled,
				map[bool]string{true: "leaked for a removed session", false: "lost for a live session"}[journaled])
		}
	}
}

// TestRecoverRacesGetOrRecoverAndRemove races a Recover pass against a
// GetOrRecover per id and a Remove of every fourth id, over 32 journaled
// sessions. Afterwards every kept id is hosted once, as the session each
// of its GetOrRecover calls returned, with its ledger; every removed id
// is neither hosted nor journaled; and recoveries_total and
// replayed_rounds_total moved once per restored id.
func TestRecoverRacesGetOrRecoverAndRemove(t *testing.T) {
	const ids, rounds = 32, 3
	ctx := context.Background()
	st := ga.NewMemStore()
	first := ga.NewAuthority(ga.WithStore(st))
	for i := 0; i < ids; i++ {
		h, err := first.CreateFromSpec(ga.CreateSessionRequest{ID: fmt.Sprintf("r-%d", i), Game: "pd", Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(ctx, rounds); err != nil {
			t.Fatal(err)
		}
	}
	first.DetachStore() // crash: registry gone, ledgers stay
	t.Cleanup(func() { first.Close() })

	before := scrapeSamples(t)
	a := ga.NewAuthority(ga.WithStore(st))
	defer a.Close()
	var (
		wg     sync.WaitGroup
		report ga.RecoveryReport
		got    [ids]*ga.HostedSession
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if report, err = a.Recover(ctx); err != nil {
			t.Error(err)
		}
	}()
	removed := func(i int) bool { return i%4 == 0 }
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("r-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := a.GetOrRecover(ctx, id)
			if err != nil && !(removed(i) && errors.Is(err, ga.ErrSessionNotFound)) {
				t.Errorf("GetOrRecover(%s): %v", id, err)
			}
			got[i] = h
		}()
		if removed(i) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.Remove(id); err != nil && !errors.Is(err, ga.ErrSessionNotFound) {
					t.Errorf("Remove(%s): %v", id, err)
				}
			}()
		}
	}
	wg.Wait()
	if len(report.Failed) > 0 {
		t.Fatalf("recover failed: %v", report.Failed)
	}

	kept := 0
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("r-%d", i)
		h, herr := a.Get(id)
		_, journaled, err := st.LoadSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if removed(i) {
			if herr == nil || journaled {
				t.Errorf("%s: removed, yet hosted=%v journaled=%v", id, herr == nil, journaled)
			}
			continue
		}
		kept++
		switch {
		case herr != nil || !journaled:
			t.Errorf("%s: hosted=%v journaled=%v, want both", id, herr == nil, journaled)
		case got[i] != h:
			t.Errorf("%s: GetOrRecover returned a session the registry does not host", id)
		case h.Stats().Rounds != rounds:
			t.Errorf("%s restored at round %d, want %d", id, h.Stats().Rounds, rounds)
		}
	}
	after := scrapeSamples(t)
	restored := after["gameauthority_recoveries_total"] - before["gameauthority_recoveries_total"]
	if restored < float64(kept) || restored > ids {
		t.Errorf("recoveries_total moved by %v; %d ids were kept, %d journaled", restored, kept, ids)
	}
	if got := after["gameauthority_replayed_rounds_total"] - before["gameauthority_replayed_rounds_total"]; got != rounds*restored {
		t.Errorf("replayed_rounds_total moved by %v for %v restores of %d rounds", got, restored, rounds)
	}
	if report.Sessions > int(restored) || report.Rounds != rounds*report.Sessions {
		t.Errorf("Recover reported %d sessions, %d rounds; %v restores happened", report.Sessions, report.Rounds, restored)
	}
}

// TestRemoveDeletesDamagedLedger: DELETE is the one API remedy for a
// ledger recovery refuses (mid-file WAL corruption), so the load failure
// that blocks recovery must not also block the delete.
func TestRemoveDeletesDamagedLedger(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := ga.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st))
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "damaged", Game: "pd", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(ctx, 3); err != nil {
		t.Fatal(err)
	}
	a.DetachStore() // crash: the registry forgets, the ledger stays

	// Corrupt the first WAL record, the frame after the spec's bytes, so
	// every load refuses the ledger.
	wal := filepath.Join(dir, "sessions", "damaged.wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	state, ok, err := st.LoadSession("damaged")
	if err != nil || !ok {
		t.Fatalf("load before the damage: ok=%v err=%v", ok, err)
	}
	data[bytes.Index(data, state.Spec)+len(state.Spec)+10] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := ga.NewAuthority(ga.WithStore(st))
	defer b.Close()
	if _, err := b.GetOrRecover(ctx, "damaged"); err == nil {
		t.Fatal("damaged ledger recovered without error")
	}
	if err := b.Remove("damaged"); err != nil {
		t.Fatalf("remove of a damaged ledger must scrub it, got %v", err)
	}
	if _, ok, lerr := st.LoadSession("damaged"); lerr != nil || ok {
		t.Fatalf("ledger not scrubbed: ok=%v err=%v", ok, lerr)
	}
	// The id is usable again.
	if _, err := b.CreateFromSpec(ga.CreateSessionRequest{ID: "damaged", Game: "pd", Seed: 6}); err != nil {
		t.Fatalf("recreate after scrub: %v", err)
	}
}

// TestRemoveUnknownAfterCloseIsNotFound: DELETE of an id that was never
// hosted must stay a not-found after Authority.Close — the closed store
// cannot be consulted, but that is not a durability failure (503) for a
// session that does not exist.
func TestRemoveUnknownAfterCloseIsNotFound(t *testing.T) {
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	err := a.Remove("never-existed")
	if !errors.Is(err, ga.ErrSessionNotFound) {
		t.Fatalf("remove unknown id after close: err = %v, want ErrSessionNotFound", err)
	}
	if errors.Is(err, ga.ErrDurability) {
		t.Fatalf("remove unknown id after close reported a durability failure: %v", err)
	}
}

// TestAuthorityPlayAfterCloseKeepsErrClosed: plays racing an
// Authority.Close must surface ErrClosed (from the session), never a
// store error or a panic, even on a durable host.
func TestAuthorityPlayAfterCloseKeepsErrClosed(t *testing.T) {
	ctx := context.Background()
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "race", Game: "pd", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := h.Play(ctx); err != nil && !errors.Is(err, ga.ErrClosed) {
					t.Errorf("play: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	wg.Wait()
	if _, err := h.Play(ctx); !errors.Is(err, ga.ErrClosed) {
		t.Fatalf("after close, Play = %v, want ErrClosed", err)
	}
}

// lifecycleSessions builds one session per driver for the close-semantics
// tests.
func lifecycleSessions(t *testing.T) map[string]ga.Session {
	t.Helper()
	out := make(map[string]ga.Session)

	pure, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	out["pure"] = pure

	g := ga.MatchingPennies()
	mixed, err := ga.New(g, ga.WithSeed(1),
		ga.WithStrategies(func(int, ga.Profile) ga.MixedProfile {
			return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
		}),
		ga.WithAudit(ga.AuditBatched, ga.EpochLen(4)),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	out["mixed"] = mixed

	rra, err := ga.New(nil, ga.WithSeed(1), ga.WithRRA(4, 2),
		ga.WithPunishment(ga.NewDisconnectScheme(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	out["rra"] = rra

	dist, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithDistributed(2, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	out["distributed"] = dist

	return out
}

// TestSessionCloseLifecycle asserts, for every driver: Close is
// idempotent, Play and Run after Close fail cleanly with ErrClosed (no
// panic, no deadlock), and Results/ResultAt/Stats still answer on the
// closed session.
func TestSessionCloseLifecycle(t *testing.T) {
	ctx := context.Background()
	for name, s := range lifecycleSessions(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Run(ctx, 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second close not idempotent: %v", err)
			}
			if _, err := s.Play(ctx); !errors.Is(err, ga.ErrClosed) {
				t.Fatalf("post-close Play: err = %v, want ErrClosed", err)
			}
			if _, err := s.Run(ctx, 2); !errors.Is(err, ga.ErrClosed) {
				t.Fatalf("post-close Run: err = %v, want ErrClosed", err)
			}
			if got := len(s.Results()); got != 3 {
				t.Fatalf("post-close Results: %d plays, want 3", got)
			}
			if _, ok := s.ResultAt(2); !ok {
				t.Fatalf("post-close ResultAt(2) lost the play")
			}
			st := s.Stats()
			if st.Rounds != 3 {
				t.Fatalf("post-close Stats.Rounds = %d, want 3", st.Rounds)
			}
			// A third close on the already-terminal session stays nil.
			if err := s.Close(); err != nil {
				t.Fatalf("third close: %v", err)
			}
		})
	}
}

// TestSessionCloseConcurrent hammers Play/Close/Stats concurrently: every
// play must either succeed or fail with ErrClosed — never panic or wedge.
func TestSessionCloseConcurrent(t *testing.T) {
	ctx := context.Background()
	for name, s := range lifecycleSessions(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if _, err := s.Play(ctx); err != nil && !errors.Is(err, ga.ErrClosed) {
							t.Errorf("play: %v", err)
							return
						}
						_ = s.Stats()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			wg.Wait()
			if _, err := s.Play(ctx); !errors.Is(err, ga.ErrClosed) {
				t.Fatalf("after concurrent close, Play = %v, want ErrClosed", err)
			}
		})
	}
}

// TestMixedCloseAuditsTrailingEpoch pins the batched-audit close-out: the
// trailing partial epoch is audited exactly once, and the post-close
// session still reports it.
func TestMixedCloseAuditsTrailingEpoch(t *testing.T) {
	ctx := context.Background()
	g := ga.MatchingPennies()
	cheat := &ga.MixedAgent{Withhold: func(int) bool { return true }}
	s, err := ga.New(g, ga.WithSeed(3),
		ga.WithStrategies(func(int, ga.Profile) ga.MixedProfile {
			return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
		}),
		ga.WithMixedAgents(cheat, nil),
		ga.WithAudit(ga.AuditBatched, ga.EpochLen(8)),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 3); err != nil { // partial epoch: 3 of 8
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Fouls == 0 || !st.Excluded[0] {
		t.Fatalf("trailing epoch not audited on close: fouls=%d excluded=%v", st.Fouls, st.Excluded)
	}
	if _, err := s.Play(ctx); !errors.Is(err, ga.ErrClosed) {
		t.Fatalf("post-close Play = %v, want ErrClosed", err)
	}
}
