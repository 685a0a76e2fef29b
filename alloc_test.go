package gameauthority_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/core"
	"gameauthority/internal/hub"
)

// Allocation budgets per driver, enforced by TestAllocsPerPlay. The pure
// and distributed drivers share the headline budget: a fully audited play
// — choice, commitment, reveal, SHA-256 verification, best-response audit,
// publication, history recording, and for a distributed play the four
// agreement phases at every processor — without a single heap allocation.
// A distributed processor encodes and parses its evidence in scratch, and
// the agreement engine copies each contributed value into a per-phase
// pool and agrees on 4-byte ids (see TestICEnginePhaseZeroAlloc in
// internal/bap). The other budgets are pinned at measured+10% (mixed 14,
// RRA 56) so a real regression trips the gate instead of drifting inside
// slack.
const (
	pureAllocBudget  = 0
	mixedAllocBudget = 16
	rraAllocBudget   = 62
	// playNOverheadBudget bounds the fixed cost of one PlayN call beyond
	// its rounds' own budgets: the lock-once loop may allocate for its
	// play closure but must not allocate per round, so a whole pure batch
	// stays within this constant regardless of batch size.
	playNOverheadBudget = 2
	// hashResultAllocBudget is the journal's per-play transcript hash: the
	// canonical line and the digest live on the stack, so the returned hex
	// string is the only allocation a journaled play pays for it.
	hashResultAllocBudget = 1
	// wsAllocBudget is a whole /ws round trip, client and server: the
	// frame read and write, the shard-loop hand-off, the reply slot and
	// the reply frame are all reused, so a remote play allocates no more
	// than the in-process one.
	wsAllocBudget = 0
)

func TestAllocsPerPlayPure(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil { // warm scratch + ring
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pureAllocBudget {
		t.Fatalf("pure play allocates %v times, budget %d", allocs, pureAllocBudget)
	}
}

// TestAllocsPerPlayNPure gates the batched hot path: a 16-round pure
// PlayN — 16 fully audited plays plus the batch loop itself — must stay
// within the fixed per-call overhead, i.e. zero allocations per round.
func TestAllocsPerPlayNPure(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	sink := func(ga.RoundResult) error { return nil }
	if _, err := s.PlayN(ctx, 64, sink); err != nil { // warm scratch + ring
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.PlayN(ctx, 16, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > playNOverheadBudget {
		t.Fatalf("16-round pure PlayN allocates %v times, budget %d", allocs, playNOverheadBudget)
	}
	t.Logf("16-round pure PlayN: %v allocs (budget %d)", allocs, playNOverheadBudget)
}

func TestAllocsPerPlayMixed(t *testing.T) {
	ctx := context.Background()
	strategies := ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	s, err := ga.New(ga.MatchingPennies(),
		ga.WithStrategies(func(int, ga.Profile) ga.MixedProfile { return strategies }),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithAudit(ga.AuditPerRound),
		ga.WithSeed(1),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > mixedAllocBudget {
		t.Fatalf("mixed play allocates %v times, budget %d", allocs, mixedAllocBudget)
	}
	t.Logf("mixed play: %v allocs (budget %d)", allocs, mixedAllocBudget)
}

func TestAllocsPerPlayRRA(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(nil, ga.WithRRA(8, 4),
		ga.WithPunishment(ga.NewDisconnectScheme(8, 0)),
		ga.WithSeed(1),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rraAllocBudget {
		t.Fatalf("RRA play allocates %v times, budget %d", allocs, rraAllocBudget)
	}
	t.Logf("RRA play: %v allocs (budget %d)", allocs, rraAllocBudget)
}

// TestAllocsPerPlayDistributed gates both shapes the ledger's distributed
// workload runs: (4, 1) and (7, 2).
func TestAllocsPerPlayDistributed(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, f, budget int }{
		{4, 1, pureAllocBudget},
		{7, 2, pureAllocBudget},
	} {
		t.Run(fmt.Sprintf("n%df%d", tc.n, tc.f), func(t *testing.T) {
			g, err := ga.PublicGoods(tc.n, 2)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ga.New(g, ga.WithDistributed(tc.n, tc.f, nil),
				ga.WithSeed(1),
				ga.WithHistoryLimit(16))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 8); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Play(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(tc.budget) {
				t.Fatalf("distributed play allocates %v times, budget %d", allocs, tc.budget)
			}
			t.Logf("distributed play: %v allocs (budget %d)", allocs, tc.budget)
		})
	}
}

func TestAllocsHashResult(t *testing.T) {
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Play(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if core.HashResult(res) == "" {
			t.Fatal("empty hash")
		}
	})
	if allocs > hashResultAllocBudget {
		t.Fatalf("HashResult allocates %v times, budget %d", allocs, hashResultAllocBudget)
	}
}

// TestAllocsPerPlayHosted gates the host layer, where every transport's
// play lands: hosting adds nothing to a play, pure or distributed, and
// Play is PlayN(1) — so the two must cost the same. Journaling a request
// costs one string, its plays' hashes back to back, plus the Mem store's
// copy of a batch's plays. On the File store the append encodes its frame
// on the stack and holds no file open between calls, so what it adds is
// the open: the path, the file and its name for the syscall. A request of
// 16 plays costs there exactly what one play does, with or without a
// committer.
//
// Under -race the pool drops a quarter of what is put back. A journal
// scratch the pool has to make costs one allocation, so every journaled
// row reads a quarter more per call than AllocsPerRun's whole count shows
// and keeps every check. A File append's frame also moves to the heap
// there (see raceEnabled), so the File rows' budget is one higher under
// -race.
func TestAllocsPerPlayHosted(t *testing.T) {
	const (
		journaledBatchBudget = 2 // the hash string and Mem's copy of the plays
		fileBudget           = 5 // the hash string and the append's open
	)
	ctx := context.Background()
	sink := func(ga.RoundResult) error { return nil }
	pd := ga.CreateSessionRequest{Game: "pd", Seed: 1, HistoryLimit: 16}
	dist := ga.CreateSessionRequest{Game: "publicgoods", Players: 4, Seed: 1, HistoryLimit: 16}
	dist.Distributed = &struct {
		N int `json:"n"`
		F int `json:"f"`
	}{N: 4, F: 1}
	file := func(commit bool) func(t *testing.T) []ga.AuthorityOption {
		return func(t *testing.T) []ga.AuthorityOption {
			st, err := ga.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opts := []ga.AuthorityOption{ga.WithStore(st), ga.WithSnapshotEvery(0)}
			if commit {
				opts = append(opts, ga.WithGroupCommit(time.Hour, 256))
			}
			return opts
		}
	}
	for _, row := range []struct {
		name        string
		opts        func(t *testing.T) []ga.AuthorityOption
		req         ga.CreateSessionRequest
		play, batch float64
		file        bool // PlayN(16) must cost what Play costs
	}{
		{"volatile", nil, pd, pureAllocBudget, playNOverheadBudget, false},
		{"journaled", func(*testing.T) []ga.AuthorityOption {
			return []ga.AuthorityOption{ga.WithStore(ga.NewMemStore()), ga.WithSnapshotEvery(0)}
		}, pd, hashResultAllocBudget, journaledBatchBudget, false},
		{"journaled/file", file(false), pd, fileBudget, fileBudget, true},
		{"journaled/file+commit", file(true), pd, fileBudget, fileBudget, true},
		{"distributed", nil, dist, pureAllocBudget, playNOverheadBudget, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			var opts []ga.AuthorityOption
			if row.opts != nil {
				opts = row.opts(t)
			}
			a := ga.NewAuthority(opts...)
			defer a.Close()
			h, err := a.CreateFromSpec(row.req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Run(ctx, 64); err != nil { // warm scratch + ring
				t.Fatal(err)
			}
			play := testing.AllocsPerRun(200, func() {
				if _, err := h.Play(ctx); err != nil {
					t.Fatal(err)
				}
			})
			playN1 := testing.AllocsPerRun(200, func() {
				if _, err := h.PlayN(ctx, 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			batch := testing.AllocsPerRun(100, func() {
				if _, err := h.PlayN(ctx, 16, sink); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("hosted %s: Play %v, PlayN(1) %v, PlayN(16) %v allocs", row.name, play, playN1, batch)
			if row.file && raceEnabled {
				row.play, row.batch = row.play+1, row.batch+1
			}
			if play > row.play {
				t.Errorf("hosted Play allocates %v times, budget %v", play, row.play)
			}
			if playN1 != play {
				t.Errorf("PlayN(1) allocates %v times, Play %v: they are one path", playN1, play)
			}
			if batch > row.batch {
				t.Errorf("hosted 16-round PlayN allocates %v times, budget %v", batch, row.batch)
			}
			if row.file && batch != play {
				t.Errorf("hosted 16-round PlayN allocates %v times, Play %v: a request's journal costs the same at any size", batch, play)
			}
		})
	}
}

// TestAllocsPerRestore gates restore-on-miss in recover_replay's shape: a
// 640-round pure session on a File store, compacted at 512, so its file
// holds a snapshot and a 128-round tail of eight 16-play batch records.
// Loading the file decodes each record into one plays slice and one
// string of hashes, the snapshot's state loads into the session's own
// slices (its ring sized once), the base digest is checked on the stack,
// and replay checks every tail play's hash in a stack buffer, so what a
// restore allocates is the file read, those two per record, the hash
// map, the spec JSON and the options it builds, and the session itself:
// it measured 78 (99 while the snapshot was JSON, the catalog was rebuilt
// per lookup and replay started at round zero; 121 when this gate was
// first set, 512 when the journal was JSON lines and replay built a string
// per verified play), and the budget is measured+10 %.
func TestAllocsPerRestore(t *testing.T) {
	const rounds, budget = 640, 86
	ctx := context.Background()
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st))
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "r", Game: "congestion", Seed: 1, HistoryLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds/16; i++ {
		if _, err := h.PlayN(ctx, 16, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Snapshot().Digest
	a.DetachStore()
	a.Close()
	if state, ok, err := st.LoadSession("r"); err != nil || !ok || state.SnapshotRounds != 512 || len(state.Tail) != 8 {
		t.Fatalf("journal: snapshot at %d, %d records (ok %v, err %v); want 512 and 8", state.SnapshotRounds, len(state.Tail), ok, err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	restore := func() uint64 {
		b := ga.NewAuthority(ga.WithStore(st))
		defer func() { b.DetachStore(); b.Close() }()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := b.GetOrRecover(ctx, "r")
		runtime.ReadMemStats(&after)
		if err != nil || h.Snapshot().Digest != want {
			t.Fatalf("restore: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	restore() // warm the compiled-game intern table
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		total += restore()
	}
	allocs := float64(total) / runs
	t.Logf("restore-on-miss of a %d-round session: %v allocs (budget %d)", rounds, allocs, budget)
	if allocs > budget {
		t.Fatalf("restore-on-miss allocates %v times, budget %d", allocs, budget)
	}
}

// TestHeapPerHostedSession gates what a hosted session retains, in
// ws_pure's shape: pure sessions cycling its six games at history_limit 8,
// played a full ring, and ws_pure's one deviant session in eight (a
// visible deviant under the disconnect scheme, excluded from its first
// play on, so its plays carry fouls or exclusions). Sessions of one spec
// share one compiled game, so the six tables amortize to almost nothing
// and what is left is the session itself (17 KB when every session
// compiled its own). An honest session measured 2,123 B and a deviant one
// 3,220 B (2,171 and 3,268 B while the host kept a per-call accumulator
// and its own sink beside the driver's), and each budget is measured+10%,
// the rule TestHeapPerHostedDistSession follows: ws_pure holds 8,192 such
// sessions, so a few hundred bytes more per session would move its live
// heap past its 5 % bound.
func TestHeapPerHostedSession(t *testing.T) {
	const sessions, rounds = 1024, 8
	games := []string{"congestion", "braess", "publicgoods-punish", "minority", "pd", "firstprice"}
	strategies := []string{"commitment-cheat", "freerider"}
	ctx := context.Background()
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle drops what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		name    string
		deviant bool
		budget  int64
	}{{"honest", false, 2_335}, {"deviant", true, 3_542}} {
		t.Run(tc.name, func(t *testing.T) {
			a := ga.NewAuthority()
			defer a.Close()
			before := heap()
			for i := 0; i < sessions; i++ {
				req := ga.CreateSessionRequest{Game: games[i%len(games)], Seed: uint64(i) + 1, HistoryLimit: 8}
				if tc.deviant {
					req.Deviant = &ga.DeviantSpec{Player: 1, Strategy: strategies[i%len(strategies)]}
					req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
				}
				h, err := a.CreateFromSpec(req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.Run(ctx, rounds); err != nil {
					t.Fatal(err)
				}
				if tc.deviant && h.Stats().Convictions == 0 {
					t.Fatalf("%s: deviant %s was not convicted", req.Game, req.Deviant.Strategy)
				}
			}
			per := (heap() - before) / sessions
			runtime.KeepAlive(a)
			t.Logf("hosted %s pure session: %d B live (budget %d)", tc.name, per, tc.budget)
			if per > tc.budget {
				t.Errorf("a hosted %s pure session retains %d B, budget %d", tc.name, per, tc.budget)
			}
		})
	}
}

// TestHeapPerHostedDistSession gates what a hosted distributed session
// retains, in inproc_dist's two shapes at history_limit 8. A session holds
// at most its budget after 64 plays, pinned at measured+10% (58.2 KB at
// (4, 1) and 252.1 KB at (7, 2); string-valued agreement trees and 24-byte
// pairs held 58.2 KB and 497 KB, and at (4, 1) the three rotating value
// pools per processor cost about what the narrower arrays save). And
// nothing may grow with the play
// count, so a session holds the same heap after 1,024 plays as after 64,
// within 1 KB. (While every processor appended each play to an unbounded
// result log, a (4, 1) session grew by ≈ 330 KB over those 960 plays and a
// (7, 2) session by ≈ 800 KB.) The runtime's own growth must stay out of
// the window: one more OS thread is ≈ 5 KB of heap, so the test runs on
// one P, and a throwaway session plays the full run before the first
// measurement.
func TestHeapPerHostedDistSession(t *testing.T) {
	const early, late, slack = 64, 1024, 1 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle drops what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		n, f, sessions int
		budget         int64
	}{{4, 1, 4, 64_030}, {7, 2, 2, 277_310}} {
		t.Run(fmt.Sprintf("n%df%d", tc.n, tc.f), func(t *testing.T) {
			a := ga.NewAuthority()
			defer a.Close()
			create := func(seed uint64, plays int) *ga.HostedSession {
				req := ga.CreateSessionRequest{Game: "publicgoods", Players: tc.n, Seed: seed, HistoryLimit: 8}
				req.Distributed = &struct {
					N int `json:"n"`
					F int `json:"f"`
				}{N: tc.n, F: tc.f}
				h, err := a.CreateFromSpec(req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.Run(ctx, plays); err != nil {
					t.Fatal(err)
				}
				return h
			}
			if err := a.Remove(create(0, late).ID()); err != nil {
				t.Fatal(err)
			}
			base := heap()
			hs := make([]*ga.HostedSession, tc.sessions)
			for i := range hs {
				hs[i] = create(uint64(i)+1, early)
			}
			before := heap()
			held := (before - base) / int64(tc.sessions)
			t.Logf("hosted (%d, %d) session: %d B live after %d plays (budget %d)", tc.n, tc.f, held, early, tc.budget)
			if held > tc.budget {
				t.Errorf("a hosted (%d, %d) session holds %d B after %d plays, budget %d", tc.n, tc.f, held, early, tc.budget)
			}
			for _, h := range hs {
				if _, err := h.Run(ctx, late-early); err != nil {
					t.Fatal(err)
				}
			}
			grown := (heap() - before) / int64(tc.sessions)
			runtime.KeepAlive(hs)
			t.Logf("hosted (%d, %d) session: %+d B from play %d to play %d (slack %d)", tc.n, tc.f, grown, early, late, slack)
			if grown > slack {
				t.Errorf("a hosted (%d, %d) session grew by %d B from play %d to play %d, slack %d", tc.n, tc.f, grown, early, late, slack)
			}
		})
	}
}

// TestHeapPerHostedMixedSession gates a hosted mixed session's footprint
// over its plays: a per-round matchingpennies session at history_limit 8
// holds the same heap after 11,000 plays as after 1,000, within 1 KB. (While
// the engine kept every verdict it issued, one per play, the session grew
// by ≈ 30 B a play.) It runs on one P, after a throwaway session played
// the full run, as TestHeapPerHostedDistSession does.
func TestHeapPerHostedMixedSession(t *testing.T) {
	const early, late, slack = 1_000, 11_000, 1 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	a := ga.NewAuthority()
	defer a.Close()
	create := func(seed uint64, plays int) *ga.HostedSession {
		h, err := a.CreateFromSpec(ga.CreateSessionRequest{Game: "matchingpennies", Kind: "mixed", Audit: "per-round", Seed: seed, HistoryLimit: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(ctx, plays); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if err := a.Remove(create(0, late).ID()); err != nil {
		t.Fatal(err)
	}
	h := create(1, early)
	before := heap()
	if _, err := h.Run(ctx, late-early); err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	runtime.KeepAlive(h)
	t.Logf("hosted mixed session: %+d B from play %d to play %d (slack %d)", grown, early, late, slack)
	if grown > slack {
		t.Errorf("a hosted mixed session grew by %d B from play %d to play %d, slack %d", grown, early, late, slack)
	}
}

// TestAllocsPerPlayWS gates the /ws round trip end to end over a loopback
// socket: a hub.Client play against a real authority's /ws endpoint, both
// sides in this process, so every allocation either side makes counts.
func TestAllocsPerPlayWS(t *testing.T) {
	a := ga.NewAuthority()
	defer a.Close()
	srv := httptest.NewServer(ga.NewServer(a))
	defer srv.Close()
	client, err := hub.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	spec, err := json.Marshal(ga.CreateSessionRequest{ID: "ws-alloc", Game: "pd", Seed: 1, HistoryLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := client.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	play := func() {
		if out, err := client.Play(ref, 1); err != nil || out.Completed != 1 {
			t.Fatalf("play: %+v, %v", out, err)
		}
	}
	for i := 0; i < 64; i++ { // warm scratch, ring, buffers and reply slots
		play()
	}
	allocs := testing.AllocsPerRun(500, play)
	t.Logf("/ws play: %v allocs (budget %d)", allocs, wsAllocBudget)
	if allocs > wsAllocBudget {
		t.Fatalf("/ws play allocates %v times, budget %d", allocs, wsAllocBudget)
	}
}
