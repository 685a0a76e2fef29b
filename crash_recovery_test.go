package gameauthority_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/core"
	"gameauthority/internal/invariant"
	"gameauthority/internal/store"
)

// crashSpecs builds the ≥ 200-session fleet for the crash-recovery
// acceptance test: every driver represented, punishment and deviants in
// the mix, rounds varying per session so WAL tails of every length are
// replayed.
func crashSpecs() ([]ga.CreateSessionRequest, []int) {
	var specs []ga.CreateSessionRequest
	var rounds []int
	families := []string{"pd", "congestion", "braess", "coordination-n", "minority", "publicgoods-punish", "firstprice", "secondprice"}
	deviants := []string{"", "commitment-cheat", "", "freerider", ""}
	// 168 pure sessions over every catalog family.
	for i := 0; i < 168; i++ {
		req := ga.CreateSessionRequest{
			ID:      fmt.Sprintf("pure-%03d", i),
			Game:    families[i%len(families)],
			Players: 3 + i%3,
			Seed:    uint64(1000 + i),
			Punishment: &ga.PunishmentSpec{
				Scheme: []string{"disconnect", "reputation"}[i%2],
			},
		}
		if d := deviants[i%len(deviants)]; d != "" {
			req.Deviant = &ga.DeviantSpec{Player: 0, Strategy: d}
		}
		if i%4 == 0 {
			req.HistoryLimit = 3 // exercise bounded rings across the crash
		}
		specs = append(specs, req)
		rounds = append(rounds, 2+i%6)
	}
	// 16 mixed sessions with per-round auditing.
	for i := 0; i < 16; i++ {
		specs = append(specs, ga.CreateSessionRequest{
			ID:   fmt.Sprintf("mixed-%02d", i),
			Game: "matchingpennies",
			Kind: "mixed", Audit: "per-round",
			Seed: uint64(2000 + i),
		})
		rounds = append(rounds, 3+i%4)
	}
	// 12 RRA sessions.
	for i := 0; i < 12; i++ {
		req := ga.CreateSessionRequest{
			ID:         fmt.Sprintf("rra-%02d", i),
			Seed:       uint64(3000 + i),
			Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
		}
		req.RRA = invariant.RRAShape(4+i%4, 2)
		specs = append(specs, req)
		rounds = append(rounds, 2+i%5)
	}
	// 8 distributed sessions (the heavy driver: few plays each).
	for i := 0; i < 8; i++ {
		req := ga.CreateSessionRequest{
			ID:          fmt.Sprintf("dist-%02d", i),
			Game:        "publicgoods",
			Players:     4,
			Seed:        uint64(4000 + i),
			PulseBudget: 1000 * ga.PulsesPerPlay(1),
		}
		req.Distributed = invariant.DistShape(4, 1)
		specs = append(specs, req)
		rounds = append(rounds, 1+i%2)
	}
	return specs, rounds
}

// TestCrashRecovery200Sessions is the acceptance criterion: kill an
// authority with ≥ 200 live sessions across all four drivers, Recover()
// restores every one from the file store, and subsequent plays match an
// uninterrupted seeded twin hash-for-hash.
func TestCrashRecovery200Sessions(t *testing.T) {
	ctx := context.Background()
	specs, rounds := crashSpecs()
	if len(specs) < 200 {
		t.Fatalf("fleet has %d sessions, want ≥ 200", len(specs))
	}

	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	victim := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(4))

	// Create and play the fleet concurrently — the crash lands mid-flight
	// on a loaded host, exactly the scenario the WAL exists for.
	var wg sync.WaitGroup
	errCh := make(chan error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(spec ga.CreateSessionRequest, plays int) {
			defer wg.Done()
			h, err := victim.CreateFromSpec(spec)
			if err != nil {
				errCh <- fmt.Errorf("create %s: %w", spec.ID, err)
				return
			}
			if _, err := h.Run(ctx, plays); err != nil {
				errCh <- fmt.Errorf("play %s: %w", spec.ID, err)
			}
		}(spec, rounds[i])
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if victim.Len() != len(specs) {
		t.Fatalf("victim hosts %d sessions, want %d", victim.Len(), len(specs))
	}

	// SIGKILL: the store is detached un-synced and the authority
	// abandoned; every journaled session must restore.
	recovered, report, err := invariant.CrashRecover(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sessions != len(specs) {
		t.Fatalf("recovered %d sessions, want %d", report.Sessions, len(specs))
	}
	t.Logf("recovered %d sessions, %d plays replayed in %v", report.Sessions, report.Rounds, report.Elapsed)

	for i, spec := range specs {
		wg.Add(1)
		go func(spec ga.CreateSessionRequest, plays int) {
			defer wg.Done()
			h, err := recovered.Get(spec.ID)
			if err == nil {
				err = againstTwin(ctx, h, spec, plays)
			}
			if err != nil {
				errCh <- err
			}
		}(spec, rounds[i])
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// againstTwin holds a recovered session to its uninterrupted seeded twin:
// it sits at wantRounds with the twin's digest, its next three plays match
// the twin's hash-for-hash, and the two end digest-equal.
func againstTwin(ctx context.Context, h *ga.HostedSession, spec ga.CreateSessionRequest, wantRounds int) error {
	twin, err := invariant.Twin(ctx, spec, wantRounds)
	if err != nil {
		return err
	}
	defer twin.Close()
	if err := invariant.CheckTwinState(invariant.StateOf(twin), invariant.StateOf(h)); err != nil {
		return fmt.Errorf("%s: recovered: %w", h.ID(), err)
	}
	for r := 0; r < 3; r++ {
		want, err := twin.Play(ctx)
		if err != nil {
			return err
		}
		got, err := h.Play(ctx)
		if err != nil {
			return err
		}
		if wh, gh := core.HashResult(want), core.HashResult(got); wh != gh {
			return fmt.Errorf("%s: post-recovery play %d hash %s, twin %s", h.ID(), r, gh, wh)
		}
	}
	if err := invariant.CheckTwinState(invariant.StateOf(twin), invariant.StateOf(h)); err != nil {
		return fmt.Errorf("%s: after three more plays: %w", h.ID(), err)
	}
	return nil
}

func verifyAgainstTwin(t *testing.T, h *ga.HostedSession, spec ga.CreateSessionRequest, wantRounds int) {
	t.Helper()
	if err := againstTwin(context.Background(), h, spec, wantRounds); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPerRoundLedger: until PR 24 a k-round request over /ws or
// HTTP journaled k play records where it now journals one batch record.
// A ledger written that way — here by hand, through the store, with a
// batch record behind it as a later host would append — still recovers
// to the twin's digest and plays on.
func TestRecoverPerRoundLedger(t *testing.T) {
	const k = 6
	ctx := context.Background()
	spec := ga.CreateSessionRequest{ID: "per-round", Game: "publicgoods-punish", Players: 4, Seed: 11,
		Deviant: &ga.DeviantSpec{Player: 0, Strategy: "freerider"}}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := invariant.Twin(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	var plays []ga.Record
	if _, err := twin.PlayN(ctx, 2*k, func(res ga.RoundResult) error {
		plays = append(plays, ga.Record{Type: "play", Round: res.Round, Hash: core.HashResult(res),
			Fouls: len(res.Verdict.Fouls), Convicted: append([]int(nil), res.Convicted...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	st := ga.NewMemStore()
	if err := st.CreateSession(spec.ID, specJSON); err != nil {
		t.Fatal(err)
	}
	for _, rec := range plays[:k] {
		if err := st.Append(spec.ID, rec); err != nil {
			t.Fatal(err)
		}
	}
	batch := ga.Record{Type: "batch"}
	for _, rec := range plays[k:] {
		batch.Plays = append(batch.Plays, store.BatchPlay{Round: rec.Round, Hash: rec.Hash, Fouls: rec.Fouls, Convicted: rec.Convicted})
	}
	if err := st.Append(spec.ID, batch); err != nil {
		t.Fatal(err)
	}

	a := ga.NewAuthority(ga.WithStore(st))
	defer a.Close()
	report, err := a.Recover(ctx)
	if err != nil || len(report.Failed) > 0 || report.Rounds != 2*k {
		t.Fatalf("recover: %+v, %v", report, err)
	}
	h, err := a.Get(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstTwin(t, h, spec, 2*k)
}

// TestCrashBetweenCommitEpochs kills (detaches the store from) an
// authority whose sessions are mid-flight through batched PlayN loops
// under group commit. Whatever the crash interleaves with, the disk must
// only ever hold whole batch records — every recovered session sits at a
// multiple of the batch size — and recovery replays all of them against
// a seeded twin without a single ErrRestore.
func TestCrashBetweenCommitEpochs(t *testing.T) {
	ctx := context.Background()
	const (
		sessions = 16
		batch    = 5
	)
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	victim := ga.NewAuthority(ga.WithStore(st),
		ga.WithGroupCommit(200*time.Microsecond, 1<<20),
		ga.WithSnapshotEvery(0)) // keep every batch in the WAL: the modulo assertion below needs the raw tail

	specs := make([]ga.CreateSessionRequest, sessions)
	var wg sync.WaitGroup
	var crashed atomic.Bool
	errCh := make(chan error, sessions)
	for i := range specs {
		specs[i] = ga.CreateSessionRequest{
			ID:         fmt.Sprintf("epoch-%02d", i),
			Game:       "pd",
			Seed:       uint64(9000 + i),
			Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
		}
		h, err := victim.CreateFromSpec(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *ga.HostedSession) {
			defer wg.Done()
			for {
				if _, err := h.PlayN(ctx, batch, nil); err != nil {
					// After the crash the store is gone mid-loop; any
					// other error is a real failure.
					if !crashed.Load() {
						errCh <- err
					}
					return
				}
				if crashed.Load() {
					return
				}
			}
		}(h)
	}
	time.Sleep(5 * time.Millisecond) // let the fleet land mid-batch
	detached := victim.DetachStore()
	crashed.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	defer victim.Close()

	recovered := ga.NewAuthority(ga.WithStore(detached), ga.WithSnapshotEvery(0))
	report, err := recovered.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if len(report.Failed) > 0 {
		t.Fatalf("recovery failed for %d sessions, first: %s", len(report.Failed), report.Failed[0])
	}
	if report.Sessions != sessions {
		t.Fatalf("recovered %d sessions, want %d", report.Sessions, sessions)
	}
	for _, spec := range specs {
		h, err := recovered.Get(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		rounds := h.Stats().Rounds
		if rounds%batch != 0 {
			t.Fatalf("%s: recovered at round %d — not a whole number of %d-round batches", spec.ID, rounds, batch)
		}
		verifyAgainstTwin(t, h, spec, rounds)
	}
}

// TestCrashInsideBatchAppend tears the WAL tail inside a batch record by
// direct file surgery — the on-disk image of a crash mid-append — and
// checks repairWAL's whole-batch-or-none contract: a tear inside the
// final frame, down to its last byte alone, rolls the session back to the
// previous whole batch. Neither case may surface ErrRestore.
func TestCrashInsideBatchAppend(t *testing.T) {
	const batch = 4
	cases := []struct {
		name       string
		truncate   int // bytes clipped off the WAL tail
		wantRounds int
	}{
		// Only the final byte is missing: a frame has no terminator to
		// lose, so that is already a torn batch, and it vanishes whole.
		{"last-byte-clipped", 1, 2 * batch},
		// The tear lands inside the last batch record; the whole batch
		// must vanish, never a prefix of its plays.
		{"mid-record", 10, 2 * batch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			st, err := ga.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			spec := ga.CreateSessionRequest{
				ID:         "torn",
				Game:       "congestion",
				Players:    4,
				Seed:       77,
				Punishment: &ga.PunishmentSpec{Scheme: "reputation"},
			}
			a := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(0))
			h, err := a.CreateFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := h.PlayN(ctx, batch, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			wal := filepath.Join(dir, "sessions", spec.ID+".wal")
			info, err := os.Stat(wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(wal, info.Size()-int64(tc.truncate)); err != nil {
				t.Fatal(err)
			}

			st2, err := ga.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			recovered := ga.NewAuthority(ga.WithStore(st2), ga.WithSnapshotEvery(0))
			defer recovered.Close()
			report, err := recovered.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Failed) > 0 {
				t.Fatalf("recovery failed: %v", report.Failed)
			}
			h2, err := recovered.Get(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstTwin(t, h2, spec, tc.wantRounds)
		})
	}
}

// TestBatchAppendFaults drives PlayN against a store whose appends fail
// on a deterministic plan, covering both batch failure modes as units:
// a clean AppendFail journals none of the batch's plays (the session
// recovers at the last acknowledged batch), and a torn AppendTorn — the
// ack lost after a durable apply — journals all of them, so recovery
// lands ahead of what the caller saw acknowledged. In both worlds the
// disk holds whole batches only.
func TestBatchAppendFaults(t *testing.T) {
	const batch = 6
	cases := []struct {
		name       string
		cfg        ga.FaultConfig
		wantRounds int
	}{
		// Every append fails cleanly: three batches play in memory, zero
		// reach the WAL.
		{"append-fail", ga.FaultConfig{Seed: 1, AppendFail: 1}, 0},
		// Every append applies durably but loses its ack: all three
		// batches reach the WAL even though every PlayN reported failure.
		{"append-torn", ga.FaultConfig{Seed: 1, AppendTorn: 1}, 3 * batch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			st, err := ga.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			spec := ga.CreateSessionRequest{
				ID:         "faulty",
				Game:       "minority",
				Players:    5,
				Seed:       42,
				Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
			}
			victim := ga.NewAuthority(ga.WithStore(st),
				ga.WithFaultPlan(ga.NewFaultPlan(tc.cfg)),
				ga.WithSnapshotEvery(0),
				ga.WithBreaker(-1, 0)) // no breaker: every batch must reach the store and eat its fault
			h, err := victim.CreateFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				_, err := h.PlayN(ctx, batch, nil)
				if !errors.Is(err, ga.ErrDurability) || !errors.Is(err, ga.ErrFaultInjected) {
					t.Fatalf("batch %d: error %v, want ErrDurability wrapping ErrFaultInjected", i, err)
				}
			}
			if got := h.Stats().Rounds; got != 3*batch {
				t.Fatalf("in-memory session at round %d, want %d", got, 3*batch)
			}
			// Crash the victim, but recover against the raw store: the
			// detached handle is the fault-wrapped decorator, which would
			// keep injecting append failures into the recovered world.
			victim.DetachStore()
			defer victim.Close()

			recovered := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(0))
			defer recovered.Close()
			report, err := recovered.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Failed) > 0 {
				t.Fatalf("recovery failed: %v", report.Failed)
			}
			h2, err := recovered.Get(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstTwin(t, h2, spec, tc.wantRounds)
		})
	}
}

// TestDurableDistributedJournalsFouls: a durable distributed session
// journals each play's fouls the way its Stats() counts them (one per
// convicted processor, since a distributed play carries no verdict
// detail), and a journal written without the field — as every journal was
// before plays recorded it for this kind — still restores.
func TestDurableDistributedJournalsFouls(t *testing.T) {
	ctx := context.Background()
	spec := ga.CreateSessionRequest{ID: "dist-fouls", Game: "publicgoods", Players: 4, Seed: 2,
		Distributed: invariant.DistShape(4, 1),
		Deviant:     &ga.DeviantSpec{Player: 0, Strategy: "commitment-cheat"}}
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(0))
	defer a.Close()
	h, err := a.CreateFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := h.Play(ctx); err != nil {
			t.Fatal(err)
		}
	}
	state, ok, err := st.LoadSession(spec.ID)
	if err != nil || !ok {
		t.Fatalf("load: found %v, err %v", ok, err)
	}
	journaled := 0
	for _, rec := range state.Tail {
		journaled += rec.Fouls
	}
	want := h.Stats().Fouls
	if want == 0 || journaled != want {
		t.Fatalf("the journal records %d fouls over %d plays, Stats().Fouls = %d", journaled, len(state.Tail), want)
	}

	old := ga.NewMemStore()
	if err := old.CreateSession(spec.ID, state.Spec); err != nil {
		t.Fatal(err)
	}
	for _, rec := range state.Tail {
		rec.Fouls = 0
		if err := old.Append(spec.ID, rec); err != nil {
			t.Fatal(err)
		}
	}
	b := ga.NewAuthority(ga.WithStore(old))
	defer b.Close()
	if report, err := b.Recover(ctx); err != nil || len(report.Failed) > 0 || report.Rounds != 5 {
		t.Fatalf("recover a journal without fouls: %+v, %v", report, err)
	}
	restored, err := b.Get(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats().Fouls; got != want {
		t.Fatalf("restored session counts %d fouls, the original %d", got, want)
	}
}

// TestRestoreReplaysTailOnly pins the work a restore does, not its time.
// A 64,112-round pure session journaled on Mem in PlayN(16) requests at
// the default cadence has its snapshot at 64,000: Recover loads the
// snapshot's state and re-executes only the 112 plays after it, and
// RecoveryReport.Rounds and gameauthority_replayed_rounds_total both say
// so. A pure session of unbounded history and a (4, 1) distributed
// session, whose snapshots carry no state, still re-execute every play:
// those rows pin which sessions restore from state. (An unbounded
// history's state would grow with the session's age, and every
// compaction would rewrite it.)
func TestRestoreReplaysTailOnly(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		req       ga.CreateSessionRequest
		rounds    int
		fromState bool
	}{
		{"pure", ga.CreateSessionRequest{ID: "old", Game: "congestion", Seed: 3, HistoryLimit: 64,
			Deviant: &ga.DeviantSpec{Player: 1, Strategy: "commitment-cheat"}}, 64_000 + 7*16, true},
		{"pure-unbounded", ga.CreateSessionRequest{ID: "old", Game: "congestion", Seed: 3,
			Deviant: &ga.DeviantSpec{Player: 1, Strategy: "commitment-cheat"}}, 20 * 16, false},
		{"distributed", ga.CreateSessionRequest{ID: "old", Game: "publicgoods", Players: 4, Seed: 3, HistoryLimit: 8,
			Distributed: invariant.DistShape(4, 1)}, 20 * 16, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := ga.NewMemStore()
			first := ga.NewAuthority(ga.WithStore(st))
			h, err := first.CreateFromSpec(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			for played := 0; played < tc.rounds; played += 16 {
				if _, err := h.PlayN(ctx, 16, nil); err != nil {
					t.Fatal(err)
				}
			}
			want := h.Snapshot()
			first.DetachStore()
			first.Close()
			state, ok, err := st.LoadSession(tc.req.ID)
			if err != nil || !ok {
				t.Fatalf("load: %v (ok %v)", err, ok)
			}
			_, carried, err := core.ParseSnapshot(state.Snapshot)
			if err != nil || tc.fromState != (len(carried) > 0) {
				t.Fatalf("snapshot at %d carries %d state bytes (%v)", state.SnapshotRounds, len(carried), err)
			}
			replays := tc.rounds
			if tc.fromState {
				if replays -= state.SnapshotRounds; state.SnapshotRounds != 64_000 || replays >= 256 {
					t.Fatalf("snapshot at %d, %d plays after it; want 64000 and fewer than the cadence", state.SnapshotRounds, replays)
				}
			}

			before := scrapeSamples(t)
			second := ga.NewAuthority(ga.WithStore(st))
			defer second.Close()
			rep, err := second.Recover(ctx)
			if err != nil || rep.Sessions != 1 || len(rep.Failed) > 0 {
				t.Fatalf("recover: %+v, %v", rep, err)
			}
			moved := scrapeSamples(t)["gameauthority_replayed_rounds_total"] - before["gameauthority_replayed_rounds_total"]
			if rep.Rounds != replays || moved != float64(replays) {
				t.Errorf("recover re-executed %d plays (counter %v), want %d", rep.Rounds, moved, replays)
			}
			r, err := second.Get(tc.req.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Snapshot(); got.Rounds != tc.rounds || got.Digest != want.Digest {
				t.Errorf("recovered at round %d digest %.12s, want %d %.12s", got.Rounds, got.Digest, tc.rounds, want.Digest)
			}
		})
	}
}
