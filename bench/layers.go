package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	ga "gameauthority"
	"gameauthority/internal/audit"
	"gameauthority/internal/bap"
	"gameauthority/internal/clocksync"
	"gameauthority/internal/commit"
	"gameauthority/internal/core"
	"gameauthority/internal/game"
	"gameauthority/internal/hub"
	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
	"gameauthority/internal/store"
	"gameauthority/internal/wire"
)

// layerRun times the layers' public functions directly, on inputs shaped
// like the workloads'. Every row is the fastest of reps repetitions of a
// fixed iteration count: as with the windows, interference only ever
// slows a repetition.
type layerRun struct {
	reps  int
	quick bool
	ctx   context.Context
	out   map[string]float64
}

// iters shrinks an iteration count to a token one in quick mode.
func (l *layerRun) iters(n int) int {
	if l.quick {
		if n > 16 {
			return 16
		}
	}
	return n
}

// measure returns the fastest repetition's time per iteration, in
// nanoseconds. run performs exactly n iterations and returns how long the
// timed part took.
func (l *layerRun) measure(n int, run func(n int) time.Duration) float64 {
	n = l.iters(n)
	best := time.Duration(-1)
	for r := 0; r < l.reps; r++ {
		if d := run(n); best < 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// time measures and records the result under name.
func (l *layerRun) time(name string, n int, run func(n int) time.Duration) {
	l.set(name, l.measure(n, run))
}

// set records a time under name, in the unit the metric is declared in.
func (l *layerRun) set(name string, ns float64) {
	if layerDef(name).Unit == "us" {
		ns /= 1e3
	}
	l.out[name] = ns
}

// loop times n back-to-back calls of fn.
func loop(fn func(i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(t0)
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("layers: %v", err))
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// runLayersPhase produces the workload-independent layer rows.
func runLayersPhase(cfg phaseConfig) (res phaseResult, err error) {
	res = phaseResult{Phase: cfg.phase, StoreFS: fsType(cfg.storeDir), Layer: map[string]float64{}}
	defer func() {
		// The micro-benchmarks panic on a set-up error: none is expected,
		// and none may go unnoticed.
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	l := &layerRun{reps: 5, quick: cfg.quick, ctx: context.Background(), out: res.Layer}
	if cfg.quick {
		l.reps = 1
	}
	l.gameLayer()
	l.judicialLayers()
	l.coreLayer()
	l.agreementLayers()
	l.wireLayer()
	l.hubLayer()
	l.authorityLayer()
	l.durabilityLayer()
	l.storeLayer(filepath.Join(cfg.storeDir, "layers"))
	l.serverLayer()
	l.obsLayer()
	return res, nil
}

func catalogGame(name string) game.Game {
	e, ok := game.ByName(name)
	if !ok {
		panic("layers: game " + name + " is not in the catalog")
	}
	return must1(e.Build(e.Players(4)))
}

// pureSpec is the session the single-session rows use: the first game of
// the pure workloads' cycle, built exactly as they build it.
func pureSpec(id string) ga.CreateSessionRequest {
	return ga.CreateSessionRequest{ID: id, Game: pureGames[0], Seed: 1, HistoryLimit: historyLimit}
}

func (l *layerRun) gameLayer() {
	games := make([]game.Game, len(pureGames))
	for i, name := range pureGames {
		games[i] = catalogGame(name)
	}
	l.time("game.compile_us", 20*len(games), loop(func(i int) {
		must1(game.Compile(games[i%len(games)], 0))
	}))
	c := must1(game.Compile(games[0], 0))
	profile := make(game.Profile, c.NumPlayers())
	sink := 0
	l.time("game.best_response_ns", 200000, loop(func(i int) {
		sink += c.BestResponse(i%len(profile), profile)
	}))
	_ = sink
}

// judicialLayers times the commit, audit and punish steps a play of a
// four-player game performs.
func (l *layerRun) judicialLayers() {
	src := prng.New(1)
	value := audit.EncodeAction(1)
	var op commit.Opening
	var digest commit.Digest
	l.time("commit.commit_ns", 100000, loop(func(int) { digest = commit.CommitInto(src, value, &op) }))
	l.time("commit.verify_ns", 100000, loop(func(int) { must(commit.Verify(digest, op)) }))

	g := must1(game.Compile(catalogGame(pureGames[0]), 0))
	n := g.NumPlayers()
	prev := make(game.Profile, n)
	ev := audit.PlayEvidence{
		Round: 1, PrevOutcome: prev,
		Commitments: make([]commit.Digest, n), Openings: make([]commit.Opening, n), Revealed: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		ev.Commitments[i], ev.Openings[i] = commit.Commit(src, audit.EncodeAction(g.BestResponse(i, prev)))
		ev.Revealed[i] = true
	}
	actions := make(game.Profile, n)
	var verdict audit.Verdict
	l.time("audit.per_round_ns", 50000, loop(func(int) {
		verdict.Fouls = verdict.Fouls[:0]
		must(audit.PerRoundInto(g, ev, actions, &verdict))
	}))
	if len(verdict.Fouls) != 0 {
		panic("layers: the audit row's honest evidence was fouled")
	}

	// One executive step: a sanction, then the exclusion sweep every play
	// makes. The scheme is renewed now and then so its event log stays
	// short.
	var scheme punish.Scheme = punish.NewDisconnect(n, 1e18)
	excluded := 0
	l.time("punish.step_ns", 200000, loop(func(i int) {
		if i%1024 == 0 {
			scheme = scheme.Fresh()
		}
		must(scheme.Punish(i%n, i, 1))
		for a := 0; a < n; a++ {
			if scheme.Excluded(a) {
				excluded++
			}
		}
	}))
	_ = excluded
}

// newBare builds a session with ga.New, without a host.
func newBare(g game.Game, opts ...ga.Option) ga.Session {
	return must1(ga.New(g, append([]ga.Option{ga.WithSeed(1), ga.WithHistoryLimit(historyLimit)}, opts...)...))
}

func (l *layerRun) coreLayer() {
	pure := newBare(catalogGame(pureGames[0]))
	defer pure.Close()
	must1(pure.Run(l.ctx, 64))
	l.time("core.pure_play_ns", 50000, loop(func(int) { must1(pure.Play(l.ctx)) }))

	for _, net := range []struct {
		name      string
		n, f, num int
	}{{"core.dist_play_n4_us", 4, 1, 300}, {"core.dist_play_n7_us", 7, 2, 40}} {
		s := newBare(must1(ga.PublicGoods(net.n, 2)), ga.WithDistributed(net.n, net.f, nil))
		must1(s.Run(l.ctx, 16))
		l.time(net.name, net.num, loop(func(int) { must1(s.Play(l.ctx)) }))
		s.Close()
	}

	// Restore replays a journal shaped like recover_replay's: a digest at
	// the watermark and per-play hashes for the 128-round tail.
	ref := newBare(catalogGame(pureGames[0]))
	target := ga.RestoreTarget{Rounds: recoverRounds, Hashes: map[int]string{}}
	must1(ref.PlayN(l.ctx, recoverRounds, func(res ga.RoundResult) error {
		if res.Round >= recoverRounds-128 {
			target.Hashes[res.Round] = core.HashResult(res)
		}
		return nil
	}))
	target.Digest = ref.Snapshot().Digest
	ref.Close()
	g := catalogGame(pureGames[0])
	perRestore := l.measure(20, loop(func(int) {
		s := must1(ga.RestoreSession(l.ctx, g, target, ga.WithSeed(1), ga.WithHistoryLimit(historyLimit)))
		s.Close()
	}))
	l.set("core.restore_us_per_round", perRestore/recoverRounds)
}

// agreementLayers times the agreement stack bottom-up: one interactive-
// consistency phase, one clock step, and one network pulse over clock
// processes on each pulse engine.
func (l *layerRun) agreementLayers() {
	for _, net := range []struct {
		suffix    string
		n, f, num int
	}{{"n4", 4, 1, 200}, {"n7", 7, 2, 20}} {
		n, f := net.n, net.f
		engines := make([]*bap.IC, n)
		vals := make([]bap.Value, n)
		for i := range engines {
			engines[i] = must1(bap.NewIC(i, n, f))
			vals[i] = bap.Value(fmt.Sprintf("value-%d", i))
		}
		lists := make([][]any, n)
		pulse := 0
		l.time("bap.ic_phase_"+net.suffix+"_us", net.num, loop(func(int) {
			for i, e := range engines {
				e.Reset(vals[i])
			}
			for k := 0; k < bap.TotalPulses(f); k++ {
				for _, e := range engines {
					for from := range engines {
						for _, payload := range lists[from] {
							e.Deliver(from, payload)
						}
					}
				}
				for i, e := range engines {
					lists[i], _ = e.EndPulse(pulse)
				}
				pulse++
			}
		}))
		if !engines[0].Done() {
			panic("layers: interactive consistency did not decide")
		}

		clocks := func() []sim.Process {
			procs := make([]sim.Process, n)
			for i := range procs {
				procs[i] = must1(clocksync.New(i, n, f, 64, 1))
			}
			return procs
		}
		if net.n == 4 {
			// A clock's step against a full inbox: one tick from every peer.
			procs := clocks()
			var inbox []sim.Message
			for _, p := range procs {
				for _, m := range p.Step(0, nil) {
					if m.To == 0 {
						inbox = append(inbox, m)
					}
				}
			}
			l.time("clocksync.step_ns", 100000, loop(func(i int) { procs[0].Step(i+1, inbox) }))
		}
		lock := must1(sim.NewNetwork(clocks(), nil))
		l.time("sim.step_lockstep_"+net.suffix+"_us", 20000, loop(func(int) { lock.StepLockstep() }))
		pool := must1(sim.NewNetwork(clocks(), nil))
		l.time("sim.step_pool_"+net.suffix+"_us", 5000, loop(func(int) { pool.StepConcurrent() }))
		pool.Close()
	}
}

func (l *layerRun) wireLayer() {
	s := newBare(catalogGame(pureGames[0]))
	defer s.Close()
	res := must1(s.Play(l.ctx)).Clone()

	buf := make([]byte, 0, 512)
	l.time("wire.play_encode_ns", 200000, loop(func(i int) { buf = wire.AppendPlay(buf[:0], uint64(i), 7, 1, 0) }))
	play := append([]byte(nil), buf...)
	l.time("wire.play_decode_ns", 200000, loop(func(int) {
		d := wire.NewDecoder(play)
		d.Byte()
		must1(wire.DecodePlay(&d))
	}))
	encode := func(i int) {
		buf = wire.AppendResultsHeader(buf[:0], uint64(i), 7)
		buf = wire.AppendResult(buf, &res)
		buf = wire.FinishResults(buf, wire.CodeOK, "", 0)
	}
	l.time("wire.result_encode_ns", 200000, loop(encode))
	frame := append([]byte(nil), buf...)
	l.out["wire.result_bytes"] = float64(len(frame))
	var item wire.Result
	l.time("wire.result_decode_ns", 200000, loop(func(int) {
		d := wire.NewDecoder(frame)
		d.Byte()
		must1(wire.DecodeResultsHeader(&d))
		for {
			more, err := wire.DecodeResultItem(&d, &item)
			must(err)
			if !more {
				break
			}
		}
		must1(wire.DecodeResultsTrailer(&d))
	}))
}

func (l *layerRun) hubLayer() {
	a := ga.NewAuthority()
	defer a.Close()
	srv := httptest.NewServer(ga.NewServer(a))
	defer srv.Close()
	conn := must1(hub.Dial("ws" + strings.TrimPrefix(srv.URL, "http") + "/ws"))
	defer conn.Close()
	ref, _, err := conn.Create(must1(json.Marshal(pureSpec("hub-probe"))))
	must(err)
	// A round trip that plays nothing: the transport's floor.
	l.time("hub.noop_rtt_us", 5000, loop(func(int) { must1(conn.Stats(ref)) }))

	shards := hub.NewShards(clients)
	defer shards.Close()
	started := make(chan time.Time, 1)
	l.time("hub.shard_submit_ns", 20000, func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if !shards.Submit("hub-probe", func() { started <- time.Now() }) {
				panic("layers: shard pool refused a job")
			}
			total += (<-started).Sub(t0)
		}
		return total
	})
}

func (l *layerRun) authorityLayer() {
	const n = 2000
	reqs := make([]ga.CreateSessionRequest, l.iters(n))
	for i := range reqs {
		reqs[i] = pureSpec(fmt.Sprintf("create-%04d", i))
		reqs[i].Game = pureGames[i%len(pureGames)]
	}
	var a *ga.Authority
	l.time("authority.create_us", n, func(n int) time.Duration {
		if a != nil {
			a.Close()
		}
		a = ga.NewAuthority()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			must1(a.CreateFromSpec(reqs[i]))
		}
		return time.Since(t0)
	})
	defer a.Close()
	l.time("authority.get_ns", 200000, loop(func(i int) { must1(a.Get(reqs[i%len(reqs)].ID)) }))

	h := must1(a.CreateFromSpec(pureSpec("hosted-probe")))
	must1(h.Run(l.ctx, 64))
	hosted := l.measure(50000, loop(func(int) { must1(h.Play(l.ctx)) }))
	l.set("authority.hosted_play_overhead_ns", hosted-l.out["core.pure_play_ns"])
}

func (l *layerRun) durabilityLayer() {
	batch := func(a *ga.Authority) float64 {
		h := must1(a.CreateFromSpec(pureSpec("journal-probe")))
		must1(h.PlayN(l.ctx, batchRounds, nil))
		return l.measure(2000, loop(func(int) { must1(h.PlayN(l.ctx, batchRounds, nil)) }))
	}
	volatile := ga.NewAuthority()
	plain := batch(volatile)
	volatile.Close()
	journaled := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	l.set("durability.journal_overhead_us", batch(journaled)-plain)
	journaled.Close()

	// One session's restore-on-miss, on journals shaped like
	// recover_replay's but held in memory.
	const sessions = 64
	ids := make([]string, l.iters(sessions))
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	for i := range ids {
		req := pureSpec(fmt.Sprintf("recover-%02d", i))
		req.Game = pureGames[i%len(pureGames)]
		ids[i] = req.ID
		h := must1(a.CreateFromSpec(req))
		for k := 0; k < recoverRounds/batchRounds; k++ {
			must1(h.PlayN(l.ctx, batchRounds, nil))
		}
	}
	l.time("durability.recover_session_us", sessions, func(n int) time.Duration {
		old := a
		a = ga.NewAuthority(ga.WithStore(old.DetachStore()))
		old.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			must1(a.GetOrRecover(l.ctx, ids[i]))
		}
		return time.Since(t0)
	})
	a.Close()
}

func (l *layerRun) storeLayer(dir string) {
	defer os.RemoveAll(dir)
	hash := strings.Repeat("ab", 32)
	play := func(i int) store.Record { return store.Record{Type: store.RecordPlay, Round: i, Hash: hash} }
	plays := make([]store.BatchPlay, batchRounds)
	batch := func(i int) store.Record {
		for k := range plays {
			plays[k] = store.BatchPlay{Round: i*batchRounds + k, Hash: hash}
		}
		return store.Record{Type: store.RecordBatch, Plays: plays}
	}
	spec := must1(json.Marshal(pureSpec("store-probe")))
	snapshot := must1(json.Marshal(ga.SessionSnapshot{
		Kind: ga.KindPure, Players: 4, Rounds: 512,
		CumulativeCost: make([]float64, 4), Excluded: make([]bool, 4), Digest: hash,
	}))

	// fresh opens an empty File store with one journaled session.
	fresh := func(name string) *store.File {
		st := must1(store.NewFile(filepath.Join(dir, name)))
		must(st.CreateSession("probe", spec))
		return st
	}
	appendRow := func(row string, n int, st store.Store, rec func(i int) store.Record) {
		base := 0
		l.time(row, n, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				must(st.Append("probe", rec(base+i)))
			}
			base += n
			return time.Since(t0)
		})
		must(st.Close())
	}
	appendRow("store.file_append_us", 5000, fresh("append"), play)
	appendRow("store.file_append_batch16_us", 2000, fresh("batch"), batch)
	mem := store.NewMem()
	must(mem.CreateSession("probe", spec))
	appendRow("store.mem_append_ns", 100000, mem, play)
	// One appender under group commit parks for the commit policy's
	// latency with nobody to share the epoch with.
	lone := fresh("lone")
	lone.SetGroupCommit(groupCommitWindow, groupCommitMaxBatch, nil)
	appendRow("store.gc_lone_append_wait_us", 200, lone, play)

	// A journal shaped like recover_replay's: a snapshot at 512 and eight
	// batch records after it.
	st := fresh("load")
	must(st.PutSnapshot("probe", 512, snapshot))
	for i := 0; i < 8; i++ {
		must(st.Append("probe", batch(512/batchRounds+i)))
	}
	l.time("store.load_session_us", 2000, loop(func(int) {
		if _, ok, err := st.LoadSession("probe"); err != nil || !ok {
			panic(fmt.Sprintf("layers: load session: ok=%v err=%v", ok, err))
		}
	}))
	l.time("store.put_snapshot_us", 500, loop(func(i int) { must(st.PutSnapshot("probe", 512+i, snapshot)) }))
	must(st.Close())
}

// serverLayer drives the JSON door's handlers through a recorder: no
// workload goes through HTTP yet, so this row is all that watches it.
func (l *layerRun) serverLayer() {
	var a *ga.Authority
	var handler http.Handler
	serve := func(method, path string, body []byte, want int) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			panic(fmt.Sprintf("layers: %s %s: status %d: %s", method, path, rec.Code, rec.Body.String()))
		}
	}
	const n = 1000
	bodies := make([][]byte, l.iters(n))
	for i := range bodies {
		req := pureSpec(fmt.Sprintf("http-%04d", i))
		req.Game = pureGames[i%len(pureGames)]
		bodies[i] = must1(json.Marshal(req))
	}
	l.time("server.http_create_us", n, func(n int) time.Duration {
		if a != nil {
			a.Close()
		}
		a = ga.NewAuthority()
		handler = ga.NewServer(a)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			serve(http.MethodPost, "/sessions", bodies[i], http.StatusCreated)
		}
		return time.Since(t0)
	})
	defer a.Close()
	playBody := []byte(`{"rounds":1}`)
	l.time("server.http_play_us", 5000, loop(func(int) {
		serve(http.MethodPost, "/sessions/http-0000/play", playBody, http.StatusOK)
	}))
	l.time("server.metrics_scrape_us", 200, loop(func(int) { serve(http.MethodGet, "/metrics", nil, http.StatusOK) }))
}

func (l *layerRun) obsLayer() {
	h := obs.NewRegistry().Histogram("bench_probe_seconds", "Probe for the record cost.")
	l.time("obs.hist_record_ns", 1000000, loop(func(i int) { h.Record(time.Duration(i)) }))
}
