package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
	"gameauthority/internal/store"
)

// Group-commit shape of inproc_durable_batch: the OS-crash-durable
// configuration of DESIGN.md §12, and the one option any workload sets
// explicitly.
const (
	groupCommitWindow   = time.Millisecond
	groupCommitMaxBatch = 256
)

func newFixture(cfg phaseConfig, sh shape, specs []sessionSpec) (fixture, error) {
	base := baseFixture{sh: sh, specs: specs, ctx: context.Background(), issued: make([]int, len(specs))}
	switch cfg.workload {
	case wlWSPure:
		return &wsPureFixture{baseFixture: base}, nil
	case wlInprocDist:
		return &inprocFixture{baseFixture: base}, nil
	case wlDurableBatch:
		return &inprocFixture{baseFixture: base, durable: true, dir: filepath.Join(cfg.storeDir, cfg.workload+"-"+cfg.phase)}, nil
	case wlRecover:
		return &recoverFixture{baseFixture: base, dir: filepath.Join(cfg.storeDir, cfg.workload+"-"+cfg.phase)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// baseFixture holds what every fixture shares: the generated inputs and
// the per-session count of requests issued so far, which is what the
// output checks hold the authority's round counters against.
type baseFixture struct {
	sh     shape
	specs  []sessionSpec
	ctx    context.Context
	issued []int // requests issued per session, warm-up included
	// handler is the current authority's HTTP door, kept for GET /metrics.
	handler http.Handler
}

// half returns the contiguous range of session indexes client c owns.
func (b *baseFixture) half(c int) (lo, hi int) {
	per := len(b.specs) / clients
	return c * per, (c + 1) * per
}

// eachClient runs fn once per client concurrently — the fixture builds
// use both cores, as the load does — and joins the errors.
func eachClient(fn func(c int) error) error {
	var (
		wg   sync.WaitGroup
		errs [clients]error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

func (b *baseFixture) metrics() http.Handler              { return b.handler }
func (b *baseFixture) beginWindow() error                 { return nil }
func (b *baseFixture) endWindow() []string                { return nil }
func (b *baseFixture) netStats() (pulses, messages int64) { return 0, 0 }
func (b *baseFixture) walFootprint() (bytes, plays int64) { return 0, 0 }

// twinSample picks the sessions the twin check replays: evenly spread, so
// every game (and both network sizes) is covered.
func (b *baseFixture) twinSample() []int {
	out := make([]int, 0, b.sh.twins)
	step := len(b.specs) / b.sh.twins
	for k := 0; k < b.sh.twins; k++ {
		// The +k walks the offset through each block of eight, so deviant
		// sessions are sampled as well.
		out = append(out, (k*step+k)%len(b.specs))
	}
	return out
}

// twinDigest replays a spec on a fresh, untimed, in-process authority for
// the given number of rounds and returns the state digest it reaches.
func twinDigest(ctx context.Context, spec sessionSpec, rounds int) (string, error) {
	a := ga.NewAuthority()
	defer a.Close()
	h, err := a.CreateFromSpec(spec.Req)
	if err != nil {
		return "", err
	}
	if _, err := h.Run(ctx, rounds); err != nil {
		return "", err
	}
	return h.Snapshot().Digest, nil
}

// verdictProblem holds a session's foul and conviction counts against what
// its spec promises: a visible deviant must have been convicted, and an
// honest session must not report a single foul.
func verdictProblem(spec sessionSpec, fouls, convictions int) string {
	switch {
	case spec.Deviant && convictions == 0:
		return fmt.Sprintf("%s: deviant %s (player %d) was not convicted (%d fouls)",
			spec.ID, spec.Req.Deviant.Strategy, spec.Req.Deviant.Player, fouls)
	case !spec.Deviant && (fouls != 0 || convictions != 0):
		return fmt.Sprintf("%s: honest session reports %d fouls, %d convictions", spec.ID, fouls, convictions)
	}
	return ""
}

// --- ws_pure ---------------------------------------------------------------------

// wsPureFixture drives volatile pure sessions over /ws against an
// in-process httptest server: one hub.Client (one connection) per
// benchmark client.
type wsPureFixture struct {
	baseFixture
	a     *ga.Authority
	srv   *httptest.Server
	conns [clients]*hub.Client
	refs  []uint64
}

func (f *wsPureFixture) build() error {
	f.a = ga.NewAuthority()
	f.handler = ga.NewServer(f.a)
	f.srv = httptest.NewServer(f.handler)
	url := "ws" + strings.TrimPrefix(f.srv.URL, "http") + "/ws"
	f.refs = make([]uint64, len(f.specs))
	return eachClient(func(c int) error {
		conn, err := hub.Dial(url)
		if err != nil {
			return err
		}
		f.conns[c] = conn
		lo, hi := f.half(c)
		for i := lo; i < hi; i++ {
			ref, _, err := conn.Create(f.specs[i].JSON)
			if err != nil {
				return fmt.Errorf("create %s: %w", f.specs[i].ID, err)
			}
			f.refs[i] = ref
		}
		for k := 0; k < f.sh.warmup; k++ {
			for i := lo; i < hi; i++ {
				if err := f.play(c, i); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (f *wsPureFixture) play(c, session int) error {
	out, err := f.conns[c].Play(f.refs[session], 1)
	if err != nil {
		return err
	}
	if out.Completed != 1 {
		return fmt.Errorf("%s: play completed %d rounds, want 1", f.specs[session].ID, out.Completed)
	}
	f.issued[session]++
	return nil
}

func (f *wsPureFixture) request(c, i int) error {
	lo, hi := f.half(c)
	return f.play(c, lo+i%(hi-lo))
}

// check reads every session's verdict counters back over the wire, and
// replays a sample on in-process twins.
func (f *wsPureFixture) check() (int, []string) {
	var problems []string
	for i, spec := range f.specs {
		st, err := f.conns[i*clients/len(f.specs)].Stats(f.refs[i])
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: stats: %v", spec.ID, err))
			continue
		}
		if st.Rounds != f.issued[i] {
			problems = append(problems, fmt.Sprintf("%s: %d rounds, %d were acknowledged", spec.ID, st.Rounds, f.issued[i]))
		} else if p := verdictProblem(spec, st.Fouls, st.Convictions); p != "" {
			problems = append(problems, p)
		}
	}
	for _, i := range f.twinSample() {
		spec := f.specs[i]
		snap, err := f.conns[i*clients/len(f.specs)].Snapshot(f.refs[i])
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: snapshot: %v", spec.ID, err))
			continue
		}
		want, err := twinDigest(f.ctx, spec, int(snap.Rounds))
		if err != nil || want != snap.Digest {
			problems = append(problems, fmt.Sprintf("%s: digest %.12s differs from its twin's %.12s (%v)", spec.ID, snap.Digest, want, err))
		}
	}
	return len(f.specs), problems
}

func (f *wsPureFixture) close() {
	for _, conn := range f.conns {
		if conn != nil {
			conn.Close()
		}
	}
	if f.srv != nil {
		f.srv.Close()
	}
	if f.a != nil {
		f.a.Close()
	}
}

// --- inproc_dist and inproc_durable_batch ----------------------------------------

// inprocFixture hosts sessions in-process and plays them through their
// HostedSession handles: volatile distributed sessions one Play at a time,
// or (durable) pure sessions on a group-committed File store one
// PlayN(16) at a time.
type inprocFixture struct {
	baseFixture
	durable bool
	dir     string
	st      *store.File
	a       *ga.Authority
	hs      []*ga.HostedSession
}

func (f *inprocFixture) authorityOptions() []ga.AuthorityOption {
	if !f.durable {
		return nil
	}
	return []ga.AuthorityOption{ga.WithStore(f.st), ga.WithGroupCommit(groupCommitWindow, groupCommitMaxBatch)}
}

func (f *inprocFixture) build() error {
	if f.durable {
		st, err := store.NewFile(f.dir)
		if err != nil {
			return err
		}
		f.st = st
	}
	f.a = ga.NewAuthority(f.authorityOptions()...)
	f.handler = ga.NewServer(f.a)
	f.hs = make([]*ga.HostedSession, len(f.specs))
	return eachClient(func(c int) error {
		lo, hi := f.half(c)
		for i := lo; i < hi; i++ {
			h, err := f.a.CreateFromSpec(f.specs[i].Req)
			if err != nil {
				return fmt.Errorf("create %s: %w", f.specs[i].ID, err)
			}
			f.hs[i] = h
		}
		for k := 0; k < f.sh.warmup; k++ {
			for i := lo; i < hi; i++ {
				if err := f.play(i); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (f *inprocFixture) play(session int) error {
	var err error
	if f.sh.roundsPerRequest == 1 {
		_, err = f.hs[session].Play(f.ctx)
	} else {
		_, err = f.hs[session].PlayN(f.ctx, f.sh.roundsPerRequest, nil)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f.specs[session].ID, err)
	}
	f.issued[session]++
	return nil
}

func (f *inprocFixture) request(c, i int) error {
	lo, hi := f.half(c)
	return f.play(lo + i%(hi-lo))
}

func (f *inprocFixture) netStats() (pulses, messages int64) {
	for _, h := range f.hs {
		st := h.Stats()
		pulses += st.Pulses
		messages += st.Messages
	}
	return pulses, messages
}

func (f *inprocFixture) walFootprint() (bytes, plays int64) {
	if !f.durable {
		return 0, 0
	}
	return walFootprint(f.st, f.dir, f.specs)
}

// walFootprint measures the WAL from outside: the bytes in the .wal files
// against the plays their records hold.
func walFootprint(st store.Store, dir string, specs []sessionSpec) (bytes, plays int64) {
	_ = st.Sync()
	for _, spec := range specs {
		state, ok, err := st.LoadSession(spec.ID)
		if err != nil || !ok {
			continue
		}
		for _, rec := range state.Tail {
			switch rec.Type {
			case store.RecordPlay:
				plays++
			case store.RecordBatch:
				plays += int64(len(rec.Plays))
			}
		}
	}
	return dirSize(filepath.Join(dir, "sessions"), "*.wal"), plays
}

func (f *inprocFixture) check() (int, []string) {
	var problems []string
	want := make([]ga.SessionSnapshot, len(f.hs))
	for i, h := range f.hs {
		spec := f.specs[i]
		want[i] = h.Snapshot()
		st := h.Stats()
		if rounds := f.issued[i] * f.sh.roundsPerRequest; st.Rounds != rounds {
			problems = append(problems, fmt.Sprintf("%s: %d rounds, %d were acknowledged", spec.ID, st.Rounds, rounds))
		} else if p := verdictProblem(spec, st.Fouls, st.Convictions); p != "" {
			problems = append(problems, p)
		}
	}
	if f.durable {
		return len(f.specs), append(problems, f.crashCheck(want)...)
	}
	// Twin replays of distributed sessions are the one expensive check, so
	// they run two at a time.
	sample := f.twinSample()
	results := make([]string, len(sample))
	_ = eachClient(func(c int) error {
		for k := c; k < len(sample); k += clients {
			i := sample[k]
			got, err := twinDigest(f.ctx, f.specs[i], want[i].Rounds)
			if err != nil || got != want[i].Digest {
				results[k] = fmt.Sprintf("%s: digest %.12s differs from its twin's %.12s (%v)", f.specs[i].ID, want[i].Digest, got, err)
			}
		}
		return nil
	})
	for _, p := range results {
		if p != "" {
			problems = append(problems, p)
		}
	}
	return len(f.specs), problems
}

// crashCheck abandons the authority as a SIGKILL would, recovers a fresh
// one from the same store, and holds every session against its pre-crash
// state: exactly the acknowledged rounds, the same digest.
func (f *inprocFixture) crashCheck(want []ga.SessionSnapshot) []string {
	old := f.a
	old.DetachStore()
	f.a = ga.NewAuthority(f.authorityOptions()...)
	defer old.Close()
	report, err := f.a.Recover(f.ctx)
	if err != nil {
		return []string{fmt.Sprintf("recover after crash: %v", err)}
	}
	problems := append([]string(nil), report.Failed...)
	for i, spec := range f.specs {
		h, err := f.a.Get(spec.ID)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: lost in the crash: %v", spec.ID, err))
			continue
		}
		if got := h.Snapshot(); got.Rounds != want[i].Rounds || got.Digest != want[i].Digest {
			problems = append(problems, fmt.Sprintf("%s: recovered at round %d digest %.12s, acknowledged round %d digest %.12s",
				spec.ID, got.Rounds, got.Digest, want[i].Rounds, want[i].Digest))
		}
	}
	return problems
}

func (f *inprocFixture) close() {
	if f.a != nil {
		f.a.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// --- recover_replay --------------------------------------------------------------

// recoverFixture journals every session once, then spends each window
// crashing the authority and recovering all of them from the store.
type recoverFixture struct {
	baseFixture
	dir     string
	st      *store.File
	a       *ga.Authority
	digests []string
}

func (f *recoverFixture) build() error {
	st, err := store.NewFile(f.dir)
	if err != nil {
		return err
	}
	f.st = st
	f.a = ga.NewAuthority(ga.WithStore(st))
	f.handler = ga.NewServer(f.a)
	f.digests = make([]string, len(f.specs))
	err = eachClient(func(c int) error {
		lo, hi := f.half(c)
		for i := lo; i < hi; i++ {
			h, err := f.a.CreateFromSpec(f.specs[i].Req)
			if err != nil {
				return fmt.Errorf("create %s: %w", f.specs[i].ID, err)
			}
			for k := 0; k < recoverRounds/batchRounds; k++ {
				if _, err := h.PlayN(f.ctx, batchRounds, nil); err != nil {
					return fmt.Errorf("%s: %w", f.specs[i].ID, err)
				}
			}
			f.digests[i] = h.Snapshot().Digest
		}
		return nil
	})
	if err != nil {
		return err
	}
	return st.Sync()
}

// beginWindow is the crash: the store is detached un-synced, a fresh
// authority takes it over, and the corpse is closed (it journals nothing:
// it no longer has a store) and collected — a crashed process takes its
// heap with it, so the recovering authority must not be timed while the
// collector is still burying its predecessor.
func (f *recoverFixture) beginWindow() error {
	old := f.a
	st := old.DetachStore()
	if st == nil {
		return errors.New("authority lost its store")
	}
	f.a = ga.NewAuthority(ga.WithStore(st))
	f.handler = ga.NewServer(f.a)
	err := old.Close()
	runtime.GC()
	return err
}

func (f *recoverFixture) request(c, i int) error {
	lo, _ := f.half(c)
	_, err := f.a.GetOrRecover(f.ctx, f.specs[lo+i].ID)
	return err
}

// endWindow holds every recovered session against the digest captured
// when it was journaled.
func (f *recoverFixture) endWindow() []string {
	var problems []string
	for i, spec := range f.specs {
		h, err := f.a.Get(spec.ID)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: not recovered: %v", spec.ID, err))
			continue
		}
		if got := h.Snapshot(); got.Rounds != recoverRounds || got.Digest != f.digests[i] {
			problems = append(problems, fmt.Sprintf("%s: recovered at round %d digest %.12s, journaled round %d digest %.12s",
				spec.ID, got.Rounds, got.Digest, recoverRounds, f.digests[i]))
		}
	}
	return problems
}

// check has nothing left to do: every pass was checked as it ended.
func (f *recoverFixture) check() (int, []string) { return 0, nil }

func (f *recoverFixture) walFootprint() (bytes, plays int64) {
	return walFootprint(f.st, f.dir, f.specs)
}

func (f *recoverFixture) close() {
	if f.a != nil {
		f.a.Close()
	}
	os.RemoveAll(f.dir)
}
