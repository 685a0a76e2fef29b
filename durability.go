package gameauthority

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"gameauthority/internal/core"
	"gameauthority/internal/obs"
	"gameauthority/internal/store"
)

// Host-layer telemetry: whole-batch latency for PlayN calls,
// restore/replay duration for crash recovery, and the play, verdict and
// journal counters. The per-round play latency lives in the drivers
// (internal/core); see DESIGN.md §14.
var (
	playNBatchLatency = obs.NewHistogram("gameauthority_playn_batch_seconds",
		"Latency of one PlayN batch (all rounds + the coalesced journal append).")
	restoreLatency = obs.NewHistogram("gameauthority_restore_seconds",
		"Duration of one session restore: journal load, state load + deterministic replay of the tail.")

	playsTotal = obs.NewCounter("gameauthority_plays_total",
		"Completed plays across hosted sessions.")
	foulsTotal = obs.NewCounter("gameauthority_fouls_total",
		"Judicial fouls observed in hosted plays.")
	convictionsTotal = obs.NewCounter("gameauthority_convictions_total",
		"Guilty verdicts observed in hosted plays.")
	breakerOpens = obs.NewCounter("gameauthority_breaker_opens_total",
		"Per-session circuit-breaker trips on repeated store failures.")
	walRecords = obs.NewCounter("gameauthority_wal_records_total",
		"Write-ahead-log records appended to the store.")
	batchedPlays = obs.NewCounter("gameauthority_batched_plays_total",
		"Plays journaled through batch WAL records (PlayN).")
	snapshotsTotal = obs.NewCounter("gameauthority_snapshots_total",
		"Compacted snapshots written to the store.")
	recoveries = obs.NewCounter("gameauthority_recoveries_total",
		"Sessions restored from the durable store.")
	replayedRounds = obs.NewCounter("gameauthority_replayed_rounds_total",
		"Plays re-executed during recovery.")
)

// Store is the authority's pluggable persistence backend: a per-session
// write-ahead log of plays/verdicts/convictions plus periodically
// compacted snapshots. See NewMemStore and NewFileStore.
type Store = store.Store

// Record is one WAL entry in a Store's per-session journal. Exported so
// external Store decorators (middleware, fault injectors, tests) can
// implement the interface without importing internal packages.
type Record = store.Record

// SessionSnapshot is a session's durable state summary: the replay
// watermark, counters, and the canonical state digest that proves a
// restored session is byte-identical. See Session.Snapshot.
type SessionSnapshot = core.SessionSnapshot

// RestoreTarget tells RestoreSession how far to replay and what to
// verify (journaled play hashes and the final state digest).
type RestoreTarget = core.RestoreTarget

// ErrNoStore is returned by durability operations on an authority built
// without WithStore.
var ErrNoStore = errors.New("gameauthority: authority has no store")

// ErrStoreClosed is returned by store operations after the store (or the
// authority owning it) was closed.
var ErrStoreClosed = store.ErrClosed

// ErrDurability marks server-side persistence failures (journal or
// snapshot writes): the request was valid but the durable store could
// not record it. The HTTP layer maps it to 503.
var ErrDurability = errors.New("gameauthority: durable store operation failed")

// ErrRestore reports that recovery replayed a session whose state did not
// match the journal — the spec, seed, or engine semantics changed since
// the state was written.
var ErrRestore = core.ErrRestore

// ErrBreakerOpen is returned by Play while a session's circuit breaker
// is open: repeated consecutive journal failures tripped it, and until
// the cooldown elapses plays fail fast without touching the session or
// the degraded store. Clients should back off and retry; the first play
// after the cooldown probes the store and closes the breaker on success.
var ErrBreakerOpen = errors.New("gameauthority: circuit breaker open (store failing)")

// Circuit-breaker defaults: five consecutive journal failures open a
// session's breaker for 500ms. See WithBreaker.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 500 * time.Millisecond
)

// WithBreaker tunes the per-session circuit breaker: failures
// consecutive journal failures open it for cooldown, during which plays
// fail fast with ErrBreakerOpen instead of hammering a degraded store.
// failures < 0 disables the breaker; failures/cooldown of 0 keep the
// defaults (5 failures, 500ms).
func WithBreaker(failures int, cooldown time.Duration) AuthorityOption {
	return func(a *Authority) {
		if failures != 0 {
			a.breakerThreshold = failures
		}
		if cooldown > 0 {
			a.breakerCooldown = cooldown
		}
	}
}

// defaultSnapshotEvery is the default compaction cadence: a durable
// session's WAL is folded into a snapshot every this many journaled
// plays, bounding log length (and recovery verification work) on
// long-lived sessions.
const defaultSnapshotEvery = 256

// NewMemStore creates the in-memory store backend: full WAL/snapshot
// semantics with no I/O. It outlives any Authority that writes it, so
// crash-simulation harnesses can abandon a host and recover a fresh one
// from the same store; it does not survive the process.
func NewMemStore() Store { return store.NewMem() }

// NewFileStore opens (creating if needed) the file store backend rooted
// at dir: one file of CRC-guarded frames per session under dir/sessions
// (spec, latest snapshot, WAL records), created and compacted whole.
// See DESIGN.md §9 for the on-disk format.
func NewFileStore(dir string) (Store, error) { return store.NewFile(dir) }

// AuthorityOption configures NewAuthority.
type AuthorityOption func(*Authority)

// WithStore attaches a durable store to the authority: sessions created
// from a serializable spec (CreateFromSpec — the POST /sessions path) are
// journaled play-by-play and survive a host crash via Recover. Sessions
// built from in-process closures (Create, Host) stay volatile — a closure
// cannot be journaled.
func WithStore(st Store) AuthorityOption {
	return func(a *Authority) { a.store.Store(&storeBox{st: st}) }
}

// WithSnapshotEvery sets the compaction cadence: every n journaled plays
// a durable session's WAL is folded into a compacted snapshot. n ≤ 0
// disables periodic compaction (snapshots still happen on close and on
// explicit SnapshotSession calls). The default is 256.
func WithSnapshotEvery(n int) AuthorityOption {
	return func(a *Authority) { a.snapshotEvery = n }
}

// WithGroupCommit enables WAL group commit on a file-backed store, so
// every acknowledged append is OS-crash durable. The protocol is
// leader/follower and has no timer: a journal append that finds no flush
// in flight flushes at once, alone; appends that land while a flush is
// in flight share the next commit epoch, which one of them leads as soon
// as that flush ends — one fsync per dirty session log per epoch, or one
// syncfs for all of them on Linux. An idle store costs nothing and a lone
// session waits only for its own barrier; under load the flush's own
// duration sets how many appends share it. A positive window arms the
// committer and is otherwise unused (no append ever waits on it; ≤ 0
// leaves group commit off); maxBatch caps the appends one epoch may
// take, later arrivals forming the epoch after it (≤ 0 means uncapped).
// The option is a no-op on backends without a committer (the in-memory
// store, custom decorators) and composes with WithFaultPlan in either
// order: faults are injected above the committer, so an injected append
// failure never reaches the fsync path. Epoch and fsync counts surface
// on /metrics as gameauthority_commit_epochs_total and
// gameauthority_fsyncs_total.
func WithGroupCommit(window time.Duration, maxBatch int) AuthorityOption {
	return func(a *Authority) {
		a.gcWindow = window
		a.gcMaxBatch = maxBatch
	}
}

// --- Durable session lifecycle --------------------------------------------------

// CreateFromSpec builds and hosts a session from its serializable wire
// spec — the same translation POST /sessions performs. On a store-backed
// authority the spec is journaled first and the session becomes durable:
// every play appends a WAL record and the session survives a host crash.
func (a *Authority) CreateFromSpec(req CreateSessionRequest) (*HostedSession, error) {
	g, opts, err := req.build()
	if err != nil {
		return nil, err
	}
	autoNamed := req.ID == ""
	for {
		h, err := a.Create(req.ID, g, opts...)
		if err != nil {
			return nil, err
		}
		st := a.getStore()
		if st == nil {
			return h, nil
		}
		req.ID = h.ID() // record the assigned id for auto-named sessions
		spec, err := json.Marshal(req)
		if err == nil {
			// The spec journal and the durable flip are one critical
			// section under the journal lock, mutually exclusive with
			// Remove's ledger decision: Remove sees either a volatile
			// session that will never journal (the dropped check below) or
			// a durable one whose ledger it then owns deleting.
			h.jmu.Lock()
			if h.dropped.Load() {
				// A Remove won between hosting and journaling: nothing was
				// journaled and nothing will be (Remove also scrubbed any
				// unowned predecessor ledger under this id). The create
				// itself succeeded — the session was simply removed right
				// after, which Remove already reported to its caller.
				h.jmu.Unlock()
				return h, nil
			}
			if err = st.CreateSession(h.ID(), spec); err == nil {
				h.durable.Store(true)
			}
			h.jmu.Unlock()
		}
		if err == nil {
			return h, nil
		}
		// Never host a session the ledger cannot recover: a durable create
		// that cannot journal is a failed create.
		if errors.Is(err, store.ErrSessionExists) {
			// The id is journaled by a previous host whose registry entry
			// was lost to a crash. Its ledger must NOT be scrubbed by this
			// cleanup (unhost leaves the store alone; only an explicit
			// Remove may delete it). An auto-named create simply skips
			// past the predecessor's ids (the counter is monotone, so this
			// terminates); an explicit id is a conflict — recover it
			// instead of re-creating.
			if a.unhost(h) {
				_ = h.Close()
			}
			if autoNamed {
				req.ID = ""
				continue
			}
			return nil, fmt.Errorf("%w: %q (journaled by a previous host; recover it instead of re-creating)",
				ErrSessionExists, h.ID())
		}
		// Scrub any partial journal (a session file whose create failed
		// late would poison the id and resurrect a phantom) while the
		// id is still hosted: once the registry entry is gone a newer
		// create could journal the same id, and this delete would destroy
		// that ledger instead.
		_ = st.Delete(h.ID())
		if a.unhost(h) {
			_ = h.Close()
		}
		return nil, fmt.Errorf("journal create: %w", errors.Join(ErrDurability, err))
	}
}

// Play executes one play on the hosted session: a batch of one.
func (h *HostedSession) Play(ctx context.Context) (RoundResult, error) {
	return h.PlayN(ctx, 1, nil)
}

// PlayN executes n plays on the hosted session under a single journal
// (and driver) lock acquisition and journals the request as ONE WAL record
// (durable sessions) carrying each play's canonical transcript hash, which
// recovery re-verifies. State evolution is identical to n sequential Play
// calls (the drivers' Play is their PlayN with n = 1); only the journaling
// is coalesced. sink, when non-nil, goes straight to the driver: it
// observes every completed round in order before the next round runs —
// results may alias driver scratch, so sink must copy or hash what it
// keeps.
//
// Inside the driver's play order, the session's stage (see Authority.Host)
// counts each play and adds it to this call's journal scratch. The
// journal append runs after the driver's lock is released, so readers
// never wait on a disk, but under the session's journal lock, so a play
// can never race Close into appending after the close record.
//
// On a mid-batch error the completed prefix is journaled and the last
// completed result returned with the error. A journal failure after a
// clean batch surfaces as ErrDurability with the last result: the plays
// happened, and reporting the failure tells the caller durability is
// degraded without losing them.
func (h *HostedSession) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	if n <= 0 {
		// Reject here rather than inside the driver, before any span or
		// journal scratch is taken.
		return RoundResult{}, fmt.Errorf("%w: non-positive batch size %d", ErrConfig, n)
	}
	// Root trace span for the end-to-end request: breaker gate → driver →
	// journal. Transport layers (HTTP route, WS round trip) wrap it from
	// outside; the distributed driver's phase/pulse spans nest inside.
	var span obs.Ctx
	if n == 1 {
		span = obs.DefaultTracer.BeginRoot("play", "play", 0, 0)
	} else {
		span = obs.DefaultTracer.BeginRoot("play.batch", "play", 0, int64(n))
		t0 := time.Now()
		defer func() { playNBatchLatency.Record(time.Since(t0)) }()
	}
	defer span.End()
	if err := h.breakerGate(); err != nil {
		return RoundResult{}, err
	}
	h.jmu.Lock()
	defer h.jmu.Unlock()
	if h.durable.Load() && !h.dropped.Load() {
		// dropped: a Remove is deleting the ledger — appending would only
		// manufacture a spurious ErrDurability for plays that succeeded.
		// The scratch grows with the plays that complete, never from n: a
		// cancelled PlayN(math.MaxInt) plays nothing and allocates nothing.
		h.journal = journalScratches.Get().(*journalScratch)
	}
	res, err := h.Session.PlayN(ctx, n, sink)
	if j := h.journal; j != nil {
		h.journal = nil
		// Journal whatever completed — on a mid-batch error the prefix
		// stands, exactly as n sequential Play calls would have journaled it.
		if plays := j.completed(); len(plays) > 0 {
			if jerr := h.a.journal(h, plays); jerr != nil {
				h.breakerRecord(true)
				err = errors.Join(err, jerr)
			} else {
				h.breakerRecord(false)
			}
		}
		j.release()
	}
	return res, err
}

// stage is the hosted session's end of the driver's play order, attached
// at Host time (core.Attach). It runs under the driver lock: it counts
// each play, its fouls and its convicted agents, and what a close-time
// fold adds to the last play, and passes each play to the journal scratch
// of the PlayN call in flight, if that call journals.
func (h *HostedSession) stage(res RoundResult, fouls, convicted int, fold bool) {
	if !fold {
		playsTotal.Inc()
		if h.journal != nil {
			h.journal.observe(&res, fouls)
		}
	}
	if fouls > 0 { // most plays have none: skip the shared cache line
		foulsTotal.Add(int64(fouls))
	}
	if convicted > 0 {
		convictionsTotal.Add(int64(convicted))
	}
}

// journalScratch is the journal state of one PlayN call on a durable
// session, taken from journalScratches for the call: each completed play's
// summary, and its transcript hash as core.HashLen hex digits packed back
// to back. Both start on arrays inside the scratch, sized for the common
// request, so a scratch the pool had to make costs one allocation; a
// larger request grows its slices past them for the call alone.
type journalScratch struct {
	batch []store.BatchPlay
	hex   []byte
	plays [scratchPlays]store.BatchPlay
	hexes [scratchPlays * core.HashLen]byte
}

// scratchPlays is the request size a journal scratch holds without
// growing: inproc_durable_batch's and recover_replay's 16-play requests.
const scratchPlays = 16

// journalScratches recycles journal scratch across calls and sessions.
var journalScratches = sync.Pool{New: func() any {
	j := new(journalScratch)
	j.batch, j.hex = j.plays[:0], j.hexes[:0]
	return j
}}

// observe adds one completed play.
func (j *journalScratch) observe(res *RoundResult, fouls int) {
	j.hex = core.AppendHashResult(j.hex, res)
	j.batch = append(j.batch, store.BatchPlay{Round: res.Round, Fouls: fouls, Convicted: append([]int(nil), res.Convicted...)})
}

// completed returns the call's plays with their hashes filled in. The
// hashes are one string, each play's a substring of it: one allocation
// per request, and a store that retains them keeps that one string alive.
func (j *journalScratch) completed() []store.BatchPlay {
	hashes := string(j.hex)
	for i := range j.batch {
		j.batch[i].Hash = hashes[core.HashLen*i : core.HashLen*(i+1)]
	}
	return j.batch
}

// release empties the scratch and returns it to the pool. Store.Append
// copies what it keeps, so the plays are the scratch's again: clearing
// them drops the call's hash string and convicted lists, and slices a
// larger request grew go to the collector, not into the pool.
func (j *journalScratch) release() {
	clear(j.plays[:min(len(j.batch), scratchPlays)])
	j.batch, j.hex = j.plays[:0], j.hexes[:0]
	journalScratches.Put(j)
}

// breakerGate fails fast with ErrBreakerOpen while the session's breaker
// is open. When the cooldown has elapsed it moves the breaker half-open:
// the next play probes the store, and one more failure re-opens it.
func (h *HostedSession) breakerGate() error {
	if h.a == nil || h.a.breakerThreshold < 0 {
		return nil
	}
	until := h.breakerUntil.Load()
	if until == 0 {
		return nil
	}
	if time.Now().UnixNano() < until {
		return ErrBreakerOpen
	}
	if h.breakerUntil.CompareAndSwap(until, 0) {
		// Half-open: leave the counter one failure short of the threshold
		// so a failed probe trips the breaker again immediately while a
		// successful one resets it.
		h.breakerFails.Store(int64(h.a.breakerThreshold) - 1)
	}
	return nil
}

// breakerRecord tracks consecutive journal failures and opens the
// breaker at the threshold.
func (h *HostedSession) breakerRecord(failed bool) {
	a := h.a
	if a == nil || a.breakerThreshold < 0 {
		return
	}
	if !failed {
		h.breakerFails.Store(0)
		return
	}
	if h.breakerFails.Add(1) >= int64(a.breakerThreshold) {
		h.breakerUntil.Store(time.Now().Add(a.breakerCooldown).UnixNano())
		breakerOpens.Inc()
	}
}

// Run executes rounds plays through Play, so every play of a durable
// session is journaled (the embedded Session.Run would bypass the WAL).
func (h *HostedSession) Run(ctx context.Context, rounds int) (RoundResult, error) {
	var last RoundResult
	for i := 0; i < rounds; i++ {
		res, err := h.Play(ctx)
		if err != nil {
			return last, err
		}
		last = res
	}
	return last, nil
}

// Close finalizes the hosted session and, for durable sessions, journals
// a close record carrying the post-close state digest plus a final
// compacted snapshot. Idempotent like the underlying Session.Close. The
// journal write-lock excludes in-flight plays, so the close record's
// digest never covers a play whose own record has not landed yet.
func (h *HostedSession) Close() error {
	h.jmu.Lock()
	defer h.jmu.Unlock()
	if err := h.Session.Close(); err != nil {
		return err
	}
	if h.a == nil || !h.durable.Load() || h.dropped.Load() || h.closeLogged.Swap(true) {
		return nil
	}
	st := h.a.getStore()
	if st == nil {
		return nil
	}
	if err := st.Append(h.id, store.Record{Type: store.RecordClose, Digest: h.Session.Snapshot().Digest}); err != nil {
		// Un-latch so a retried Close re-attempts the close record instead
		// of falsely reporting success with an open-looking journal.
		h.closeLogged.Store(false)
		return fmt.Errorf("journal close: %w", errors.Join(ErrDurability, err))
	}
	walRecords.Inc()
	// Best-effort final compaction; the close record above already makes
	// recovery exact.
	_, _ = h.snapshotLocked()
	return nil
}

// journal appends the one WAL record of a PlayN call and advances the
// compaction cadence by its size. A single play is a play record; more
// are one batch record — a single CRC-guarded journal frame, so atomic on
// disk: a crash persists all of its plays or none (repairWAL truncates a
// torn frame whole), and recovery unpacks the per-play hashes exactly as
// if each had its own record.
func (a *Authority) journal(h *HostedSession, plays []store.BatchPlay) error {
	rec := store.Record{Type: store.RecordBatch, Plays: plays}
	if len(plays) == 1 {
		p := plays[0]
		rec = store.Record{Type: store.RecordPlay, Round: p.Round, Hash: p.Hash, Fouls: p.Fouls, Convicted: p.Convicted}
	}
	st := a.getStore()
	if st == nil {
		return nil // detached (DetachStore): the crash harness's abandoned host
	}
	if err := st.Append(h.id, rec); err != nil {
		return fmt.Errorf("journal %s: %w", rec.Type, errors.Join(ErrDurability, err))
	}
	walRecords.Inc()
	if len(plays) > 1 {
		batchedPlays.Add(int64(len(plays)))
	}
	if every := a.snapshotEvery; every > 0 {
		// A failed compaction leaves the count standing, so the next
		// journaled play retries it.
		if h.walPlays += len(plays); h.walPlays >= every {
			_, _ = h.snapshotLocked()
		}
	}
	return nil
}

// snapshot captures the session's state summary and, when the session is
// durable, persists it as the compacted snapshot. It waits for an
// in-flight journal append of the session: see snapshotLocked.
func (h *HostedSession) snapshot() (SessionSnapshot, bool, error) {
	h.jmu.Lock()
	defer h.jmu.Unlock()
	// Under jmu no play runs, so the summary describes what was persisted:
	// it is read back from the payload rather than digested a second time.
	payload, err := h.snapshotLocked()
	if payload == nil {
		return h.Session.Snapshot(), false, nil
	}
	snap, _, perr := core.ParseSnapshot(payload)
	return snap, err == nil, errors.Join(err, perr)
}

// snapshotLocked persists every snapshot of a hosted session, compacting
// its WAL and resetting the compaction cadence; the caller holds jmu.
// Under the journal lock the snapshot covers every journaled record and no
// append lands between the capture and the compaction, so the store's log
// stays in round order behind its snapshot. The payload is
// core.AppendSnapshot's: the counters, the digest and, for the pure and
// RRA kinds of bounded history, the session state a restore loads. It
// returns the payload, persisted unless err is set, and nil (with a nil
// error) for volatile sessions.
func (h *HostedSession) snapshotLocked() (payload []byte, err error) {
	st := h.a.getStore()
	if st == nil || !h.durable.Load() || h.dropped.Load() {
		return nil, nil
	}
	payload, rounds := core.AppendSnapshot(make([]byte, 0, 1024), h.Session)
	if err := st.PutSnapshot(h.id, rounds, payload); err != nil {
		return payload, fmt.Errorf("snapshot: %w", errors.Join(ErrDurability, err))
	}
	h.walPlays = 0
	snapshotsTotal.Inc()
	return payload, nil
}

// SnapshotSession captures the session's state summary and, when the
// session is durable, persists it as the compacted snapshot (the POST
// /sessions/{id}/snapshot operation). persisted reports whether the store
// was updated.
func (a *Authority) SnapshotSession(id string) (snap SessionSnapshot, persisted bool, err error) {
	h, err := a.Get(id)
	if err != nil {
		return SessionSnapshot{}, false, err
	}
	return h.snapshot()
}

// SnapshotAll snapshots every hosted durable session (graceful-shutdown
// compaction), returning how many snapshots were persisted and the first
// error encountered.
func (a *Authority) SnapshotAll() (int, error) {
	var first error
	persisted := 0
	for _, h := range a.Sessions() {
		if _, ok, err := h.snapshot(); err != nil {
			if first == nil {
				first = err
			}
		} else if ok {
			persisted++
		}
	}
	return persisted, first
}

// DetachStore removes and returns the authority's store without syncing
// or closing it — the SIGKILL simulation crash harnesses use to abandon a
// host: the detached instance stops journaling immediately, and whatever
// reached the store stays exactly as a real crash would leave it.
func (a *Authority) DetachStore() Store {
	if b := a.store.Swap(nil); b != nil {
		return b.st
	}
	return nil
}

// --- Recovery -------------------------------------------------------------------

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Sessions is the number of sessions restored and re-hosted.
	Sessions int
	// Rounds is the total number of plays re-executed across them: the
	// plays after each snapshot's state, or every play of a session whose
	// snapshot carries none (mixed and distributed).
	Rounds int
	// Elapsed is the wall-clock recovery time (the replay lag).
	Elapsed time.Duration
	// Failed lists "id: reason" for sessions that could not be restored
	// (corrupt spec, verification mismatch); they stay in the store for
	// inspection.
	Failed []string
}

// Recover restores every persisted session from the durable store:
// concurrent workers rebuild each session from its journaled spec, load
// its snapshot's state, deterministically replay the rest to its WAL
// watermark (verifying play hashes and state digests), and re-host it
// under its original id. Sessions that fail verification are reported in
// the RecoveryReport and left in the store. Safe to call on a freshly
// built authority at startup.
func (a *Authority) Recover(ctx context.Context) (RecoveryReport, error) {
	start := time.Now()
	st := a.getStore()
	if st == nil {
		return RecoveryReport{}, ErrNoStore
	}
	ids, err := st.IDs()
	if err != nil {
		return RecoveryReport{}, err
	}
	workers := min(2*runtime.GOMAXPROCS(0), 16)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		report RecoveryReport
	)
	sem := make(chan struct{}, workers)
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(id string) {
			defer func() { <-sem; wg.Done() }()
			// Each worker loads its own session's state, so journal I/O
			// overlaps replay and memory holds only in-flight sessions.
			rounds, restored, err := a.restore(ctx, st, id)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrSessionNotFound):
				// Removed since the listing: nothing to recover.
			case err != nil:
				report.Failed = append(report.Failed, fmt.Sprintf("%s: %v", id, err))
			case restored:
				report.Sessions++
				report.Rounds += rounds
			}
		}(id)
	}
	wg.Wait()
	sort.Strings(report.Failed)
	report.Elapsed = time.Since(start)
	return report, ctx.Err()
}

// restoreCall tracks one in-flight restore so concurrent restores of the
// same id share a single replay (singleflight).
type restoreCall struct {
	done chan struct{}
	err  error
}

// GetOrRecover returns the hosted session with the given id, lazily
// restoring it from the durable store on a registry miss (the HTTP
// restore-on-miss path: a request for a session the crashed predecessor
// hosted revives it on demand).
func (a *Authority) GetOrRecover(ctx context.Context, id string) (*HostedSession, error) {
	if st := a.getStore(); st != nil {
		if _, _, err := a.restore(ctx, st, id); err != nil {
			return nil, err
		}
	}
	return a.Get(id)
}

// restore is the one path by which a journaled session comes back, shared
// by Recover's workers and GetOrRecover: a registry hit needs nothing;
// concurrent restores of one id share one replay, followers waiting for
// the leader instead of each paying the full deterministic replay only to
// lose the Host race; and a failed replay is remembered, so no later call
// reads the ledger again to fail the same way. restored reports whether
// this call did the replay, rounds how many plays it replayed. A missing
// ledger is ErrSessionNotFound; a load or replay failure is ErrDurability.
func (a *Authority) restore(ctx context.Context, st Store, id string) (rounds int, restored bool, err error) {
	if a.lookup(id) != nil {
		return 0, false, nil
	}
	a.restoreMu.Lock()
	if ferr, failed := a.restoreFailed[id]; failed {
		// The replay failed deterministically before (diverged digest,
		// unbuildable spec): the ledger has not changed, so re-paying the
		// full replay would only re-derive the same failure. Remove — the
		// one API remedy, which deletes the ledger — clears this memo.
		a.restoreMu.Unlock()
		return 0, false, ferr
	}
	if c, inflight := a.restoring[id]; inflight {
		a.restoreMu.Unlock()
		select {
		case <-c.done:
			return 0, false, c.err
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
	if a.restoring == nil {
		a.restoring = make(map[string]*restoreCall)
	}
	c := &restoreCall{done: make(chan struct{})}
	a.restoring[id] = c
	a.restoreMu.Unlock()
	defer func() {
		c.err = err
		a.restoreMu.Lock()
		delete(a.restoring, id)
		a.restoreMu.Unlock()
		close(c.done)
	}()

	state, ok, err := st.LoadSession(id)
	if err != nil {
		// A degraded store must not masquerade as "session never existed":
		// the ledger may be intact. Surface the server-side condition.
		return 0, false, fmt.Errorf("load %q: %w", id, errors.Join(ErrDurability, err))
	}
	if !ok {
		return 0, false, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	// The replay is shared by every waiter on c.done, so it must not die
	// with the leader's request: a leader disconnect mid-replay would
	// otherwise surface as an ErrDurability 503 to followers of a healthy
	// store. The replay is finite (bounded by the WAL watermark), so
	// running it to completion without the request's cancellation is safe.
	if rounds, restored, err = a.restoreOne(context.WithoutCancel(ctx), state); err == nil {
		return rounds, restored, nil
	}
	// The ledger exists but could not be revived (diverged digest,
	// unbuildable spec). That is a damaged-store condition, not "never
	// existed": report it as such, with the cause inspectable.
	err = fmt.Errorf("restore %q: %w", id, errors.Join(ErrDurability, err))
	a.restoreMu.Lock()
	// Memoize only while the ledger still exists: a Remove that raced the
	// replay deleted it — and its memo clear, which serializes on
	// restoreMu, must not be outrun by this write (a stale memo would 503
	// a session that is simply gone).
	if has, herr := st.Has(id); herr == nil && has {
		if a.restoreFailed == nil {
			a.restoreFailed = make(map[string]error)
		}
		a.restoreFailed[id] = err
	}
	a.restoreMu.Unlock()
	return 0, false, err
}

// restoreOne rebuilds, replays, verifies, and re-hosts one journaled
// session. restored is false (with a nil error) when the id was already
// hosted — nothing was recovered, and nothing is counted.
func (a *Authority) restoreOne(ctx context.Context, state store.SessionState) (rounds int, restored bool, err error) {
	t0 := time.Now()
	var req CreateSessionRequest
	if err := json.Unmarshal(state.Spec, &req); err != nil {
		return 0, false, fmt.Errorf("corrupt spec: %w", err)
	}
	g, opts, err := req.build()
	if err != nil {
		return 0, false, fmt.Errorf("spec no longer builds: %w", err)
	}
	target, base, err := restoreTargetFor(state)
	if err != nil {
		return 0, false, err
	}
	s, err := RestoreSession(ctx, g, target, opts...)
	if err != nil {
		return 0, false, err
	}
	h, err := a.Host(state.ID, s)
	if errors.Is(err, ErrSessionExists) {
		// A concurrent recovery of the same id won; use its session.
		_ = s.Close()
		return 0, false, nil
	}
	if err != nil {
		_ = s.Close()
		return 0, false, err
	}
	if st := a.getStore(); st != nil {
		if has, herr := st.Has(state.ID); herr == nil && !has {
			// A Remove deleted the ledger while we were replaying: honor
			// the delete instead of hosting a zombie with no journal.
			h.dropped.Store(true)
			_ = a.Remove(state.ID)
			return 0, false, nil
		}
	}
	h.jmu.Lock()
	if h.dropped.Load() {
		// A Remove claimed the freshly hosted session before the durable
		// flip: under this same lock it saw the journaled ledger and
		// deleted it. Honor the removal.
		h.jmu.Unlock()
		return 0, false, nil
	}
	h.durable.Store(true)
	// Seed the cadence counter with the un-compacted tail so long tails
	// compact soon after recovery.
	h.walPlays = len(target.Hashes)
	h.jmu.Unlock()
	if target.Closed {
		h.closeLogged.Store(true)
	}
	restoreLatency.Record(time.Since(t0))
	recoveries.Inc()
	replayed := max(target.Rounds-base, 0)
	replayedRounds.Add(int64(replayed))
	return replayed, true, nil
}

// restoreTargetFor derives the restore target from a journaled state: the
// snapshot gives the base watermark, its digest and the session state
// replay starts from (base is that state's round, 0 when the snapshot
// carries none), the WAL tail extends the watermark and supplies per-play
// hashes, and a close record (or a close-time snapshot) closes the
// restored session with its post-close digest.
func restoreTargetFor(state store.SessionState) (target RestoreTarget, base int, err error) {
	target = RestoreTarget{Rounds: state.SnapshotRounds, Closed: state.Closed}
	snapDigest := ""
	if len(state.Snapshot) > 0 {
		snap, st, err := core.ParseSnapshot(state.Snapshot)
		if err != nil {
			return target, 0, fmt.Errorf("corrupt snapshot: %w", err)
		}
		if snap.Rounds > target.Rounds {
			target.Rounds = snap.Rounds
		}
		snapDigest = snap.Digest
		if snap.Closed {
			target.Closed = true
		}
		if len(st) > 0 {
			target.State, target.Base, base = st, snap, snap.Rounds
		}
	}
	lastPlay, plays := -1, 0
	for i := range state.Tail {
		plays += max(len(state.Tail[i].Plays), 1) // a close record sizes one slot too many
	}
	target.Hashes = make(map[int]string, plays)
	record := func(round int, hash string) {
		target.Hashes[round] = hash
		if round > lastPlay {
			lastPlay = round
		}
	}
	for _, rec := range state.Tail {
		switch rec.Type {
		case store.RecordPlay:
			record(rec.Round, rec.Hash)
		case store.RecordBatch:
			// A batch unpacks into per-play hashes; entries below the
			// snapshot watermark (a batch straddling a compaction) are
			// harmless: a replay that starts below them verifies them too,
			// and one that starts from the snapshot's state skips them.
			for _, bp := range rec.Plays {
				record(bp.Round, bp.Hash)
			}
		}
	}
	if lastPlay+1 > target.Rounds {
		target.Rounds = lastPlay + 1
	}
	switch {
	case state.Closed && state.CloseDigest != "":
		target.Digest = state.CloseDigest
	case lastPlay < state.SnapshotRounds && snapDigest != "":
		// No plays beyond the snapshot: its digest is the final state.
		target.Digest = snapDigest
	}
	return target, base, nil
}

// RestoreSession rebuilds a session from the same game+options New takes,
// loads the target's state if it carries one, and deterministically
// replays it to the target (see core.Restore). The restored session's
// retained state is byte-identical to the journaled one; any verification
// mismatch fails with ErrRestore. A target with State requires agents
// (WithAgents) that choose from the round and the previous outcome alone,
// as the catalog deviants do: the state does not carry an agent's own
// memory, and a restore with no plays after the snapshot checks nothing
// past its digest. For other agents leave State empty and replay from
// round zero.
func RestoreSession(ctx context.Context, g Game, target RestoreTarget, opts ...Option) (Session, error) {
	cfg := core.SessionConfig{Game: g}
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.Restore(ctx, cfg, target)
}
