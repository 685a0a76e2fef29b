package gameauthority

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gameauthority/internal/bap"
	"gameauthority/internal/core"
	"gameauthority/internal/hub"
	"gameauthority/internal/obs"
	"gameauthority/internal/store"
)

// The host's lifecycle and group-commit counters. gameauthority_sessions
// is a scrape-time gauge over the newest Authority (registerGauges).
var (
	sessionsCreated = obs.NewCounter("gameauthority_sessions_created_total",
		"Sessions ever hosted.")
	commitEpochs = obs.NewCounter("gameauthority_commit_epochs_total",
		"Group-commit fsync epochs flushed by the committer.")
	fsyncs = obs.NewCounter("gameauthority_fsyncs_total",
		"WAL-handle fsyncs issued by group-commit epochs.")
)

// Authority-host errors.
var (
	// ErrSessionExists is returned when creating a session under an ID
	// that is already hosted.
	ErrSessionExists = errors.New("gameauthority: session id already hosted")
	// ErrSessionNotFound is returned for lookups of unknown session IDs.
	ErrSessionNotFound = errors.New("gameauthority: session not found")
	// ErrSessionID is returned for malformed session IDs (see Host).
	ErrSessionID = errors.New("gameauthority: invalid session id")
	// ErrAgreementCost is returned when creating a distributed session
	// whose (n, f) prices above agreementBudget.
	ErrAgreementCost = errors.New("gameauthority: distributed (n, f) exceeds the agreement cost budget")
)

// agreementBudget is the largest bap.Cost(n, f) a create admits. Cost is
// exponential in f, and the shapes either side of the line were timed on
// the reference host (DESIGN.md §13): (7,2), (10,2) and (16,1) play in
// 8–13 ms and price under it; (10,3) at ≈ 100 ms, (13,2) and (13,4) at
// 6–19 s a play price over it. Restore does not re-check: a ledger exists
// only for a spec that passed this door, and one journaled under an
// older, larger budget must keep recovering.
const agreementBudget = 100_000

// validSessionID restricts registry keys so every hosted session stays
// addressable by the single-segment HTTP routes (/sessions/{id}): 1–64
// characters from [A-Za-z0-9._-].
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	// "." and ".." survive the character class but are path-cleaned away
	// by net/http routing.
	if id == "." || id == ".." {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// authorityShards is the registry's shard count (a power of two, so the
// hash maps to a shard with a mask). 64 shards keep create/get/remove
// contention negligible at thousands of concurrent sessions while the
// idle footprint stays a few kilobytes.
const authorityShards = 64

// Authority hosts many independent authority sessions keyed by ID behind
// a sharded, sync-safe registry — the middleware as a long-lived
// multi-tenant service rather than a one-shot driver. IDs hash onto
// authorityShards independently locked shards, so session create/get/play
// never serialize behind one registry lock under load (the many-session
// regime cmd/loadgen drives). All methods are safe for concurrent use,
// and hosted sessions may be played concurrently (each session serializes
// its own plays).
type Authority struct {
	shards [authorityShards]authorityShard
	nextID atomic.Uint64

	// store is the optional durable backend (WithStore); swapped
	// atomically so DetachStore can simulate crashes without racing the
	// play path.
	store atomic.Pointer[storeBox]
	// snapshotEvery is the compaction cadence: a durable session's WAL is
	// folded into a snapshot every snapshotEvery journaled plays
	// (WithSnapshotEvery; ≤ 0 disables periodic compaction).
	snapshotEvery int
	// restoring singleflights restore-on-miss replays per session id;
	// restoreFailed memoizes ids whose replay failed deterministically
	// (diverged digest, unbuildable spec) so every later request does not
	// re-pay the full replay just to fail again. Remove clears the memo
	// when it deletes the ledger.
	restoreMu     sync.Mutex
	restoring     map[string]*restoreCall
	restoreFailed map[string]error
	// storeClosed latches after the first Close so a second Close stays
	// idempotent (the store is synced and closed exactly once).
	storeClosed atomic.Bool

	// faultPlan is the optional chaos schedule (WithFaultPlan): applied
	// after options by NewAuthority, wrapping the durable store.
	faultPlan *FaultPlan
	// gcWindow/gcMaxBatch configure WAL group commit (WithGroupCommit):
	// a positive gcWindow arms the store's committer — nothing ever waits
	// on it — and gcMaxBatch caps the appends one commit epoch may take.
	// NewAuthority arms it on the unwrapped store, before any fault
	// decorator, when the backend supports it.
	gcWindow   time.Duration
	gcMaxBatch int
	// breakerThreshold/breakerCooldown tune the per-session circuit
	// breaker on repeated store failures (WithBreaker; threshold < 0
	// disables it).
	breakerThreshold int
	breakerCooldown  time.Duration

	// loops is the /ws transport's executor (internal/hub): a pool of
	// GOMAXPROCS loops, built the first time the transport needs it, that
	// pins each session's commands onto one goroutine by id hash. HTTP and
	// in-process plays run on their caller's goroutine; the session's own
	// locks order them against the loop's.
	loops   atomic.Pointer[hub.Shards]
	loopsMu sync.Mutex
}

// storeBox wraps the store interface for atomic.Pointer.
type storeBox struct{ st store.Store }

// getStore returns the attached store, or nil.
func (a *Authority) getStore() store.Store {
	if b := a.store.Load(); b != nil {
		return b.st
	}
	return nil
}

// authorityShard is one lock's worth of the registry.
type authorityShard struct {
	mu       sync.RWMutex
	sessions map[string]*HostedSession
}

// HostedSession is a Session registered with an Authority under an ID.
// Sessions created from a serializable spec on a store-backed authority
// are durable: their plays are journaled to the write-ahead log and they
// survive a crash of the host (see Authority.Recover).
type HostedSession struct {
	Session
	id string
	a  *Authority

	// jmu orders journaling against close and removal: each PlayN call
	// fills (through the stage) and appends its one journal scratch under
	// the lock, Close journals its close record under it, and Remove
	// decides the ledger's fate under it, so a play that completed before
	// Close always reaches the WAL before the close record (whose digest
	// covers it) is written.
	jmu sync.Mutex

	// durable marks sessions journaled in the authority's store. It flips
	// under jmu, in the same critical section as the spec journal write,
	// so a Remove deciding the ledger's fate under jmu sees either a
	// durable session (whose ledger it then owns deleting) or a volatile
	// one that — having observed dropped — will never journal.
	durable atomic.Bool
	// dropped marks sessions being removed: Close skips the close-record
	// journal because Remove deletes the whole ledger.
	dropped atomic.Bool
	// closeLogged latches the close record so idempotent Close journals
	// it exactly once.
	closeLogged atomic.Bool
	// walPlays counts plays journaled since the last compacted snapshot
	// (under jmu).
	walPlays int

	// breakerFails counts consecutive journal failures; breakerUntil is
	// the unix-nano deadline while the session's circuit breaker is open
	// (0 = closed). See PlayN.
	breakerFails atomic.Int64
	breakerUntil atomic.Int64

	// journal is the journal scratch of the PlayN call in flight, nil
	// between calls and on a session that is not journaling (under jmu).
	journal *journalScratch
}

// ID returns the session's registry key.
func (h *HostedSession) ID() string { return h.id }

// NewAuthority creates an empty host. Options attach a durable store
// (WithStore) and tune the snapshot cadence (WithSnapshotEvery).
func NewAuthority(opts ...AuthorityOption) *Authority {
	a := &Authority{
		snapshotEvery:    defaultSnapshotEvery,
		breakerThreshold: defaultBreakerThreshold,
		breakerCooldown:  defaultBreakerCooldown,
	}
	for i := range a.shards {
		a.shards[i].sessions = make(map[string]*HostedSession)
	}
	for _, opt := range opts {
		opt(a)
	}
	// Enable group commit on the raw store before any fault decorator
	// wraps it (WithGroupCommit and WithStore compose in either order; a
	// backend without a committer — Mem, custom decorators — is a no-op).
	if a.gcWindow > 0 {
		if st, ok := a.getStore().(interface {
			SetGroupCommit(time.Duration, int, func(synced, parked int))
		}); ok {
			st.SetGroupCommit(a.gcWindow, a.gcMaxBatch, func(synced, parked int) {
				commitEpochs.Inc()
				fsyncs.Add(int64(synced))
			})
		}
	}
	// Arm the fault plan after all options so WithFaultPlan and WithStore
	// compose in either order.
	if a.faultPlan != nil {
		if st := a.getStore(); st != nil {
			a.store.Store(&storeBox{st: a.faultPlan.Store(st)})
		}
	}
	a.registerGauges()
	return a
}

// registerGauges publishes this authority's scrape-time gauges: live
// sessions, in all and per registry shard, and open circuit breakers.
// Registration replaces by name+labels, so the newest authority owns the
// series (the semantics tests want when they build many short-lived
// authorities) and the hot paths pay nothing — every value is computed at
// scrape time.
func (a *Authority) registerGauges() {
	obs.RegisterGaugeFunc("gameauthority_sessions",
		"Currently hosted authority sessions.",
		func() float64 { return float64(a.Len()) })
	for i := range a.shards {
		sh := &a.shards[i]
		obs.RegisterGaugeFunc("gameauthority_shard_sessions",
			"Live sessions hosted per registry shard.",
			func() float64 {
				sh.mu.RLock()
				n := len(sh.sessions)
				sh.mu.RUnlock()
				return float64(n)
			}, obs.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
	obs.RegisterGaugeFunc("gameauthority_breaker_open_sessions",
		"Sessions whose journal circuit breaker is currently open.",
		func() float64 {
			open := 0
			for i := range a.shards {
				sh := &a.shards[i]
				sh.mu.RLock()
				for _, h := range sh.sessions {
					if h.breakerUntil.Load() != 0 {
						open++
					}
				}
				sh.mu.RUnlock()
			}
			return float64(open)
		})
}

// shardFor maps a session ID onto its shard (FNV-1a over the ID bytes;
// IDs are short, so inlining the hash beats hash/fnv's allocation).
func (a *Authority) shardFor(id string) *authorityShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &a.shards[h&(authorityShards-1)]
}

// Create builds a session with New and hosts it under id. An empty id is
// assigned automatically ("s-1", "s-2", ...). Creating over an existing
// id fails with ErrSessionExists.
func (a *Authority) Create(id string, g Game, opts ...Option) (*HostedSession, error) {
	// Check the ID before paying for session construction (a distributed
	// session builds a whole processor mesh). Host re-checks under the
	// shard's write lock, so a lost race still fails cleanly with
	// ErrSessionExists.
	if id != "" {
		if !validSessionID(id) {
			return nil, fmt.Errorf("%w: %q (want 1-64 characters from [A-Za-z0-9._-])", ErrSessionID, id)
		}
		sh := a.shardFor(id)
		sh.mu.RLock()
		_, taken := sh.sessions[id]
		sh.mu.RUnlock()
		if taken {
			return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
		}
	}
	cfg := sessionConfig(g, opts)
	if cost := bap.Cost(cfg.DistProcs, cfg.DistFaults); cost > agreementBudget {
		// Priced before any EIG layout is built: a play at this shape
		// would hold its shard loop for seconds, or exhaust memory here.
		return nil, fmt.Errorf("%w: n=%d, f=%d prices at %.0f (EIG nodes × n²), the budget is %d",
			ErrAgreementCost, cfg.DistProcs, cfg.DistFaults, cost, agreementBudget)
	}
	s, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	h, err := a.Host(id, s)
	if err != nil {
		// A concurrent Create won the ID between the pre-check and the
		// shard lock; release the freshly built session (a distributed one
		// at n ≥ 10 owns a worker pool) instead of leaking it.
		_ = s.Close()
		return nil, err
	}
	return h, nil
}

// Host registers an existing session under id (empty = auto-assigned).
// IDs are restricted to 1–64 characters from [A-Za-z0-9._-] so every
// session stays addressable over HTTP.
//
// Hosting attaches the session's stage to its play order (core.Attach):
// each later play moves gameauthority_plays_total, _fouls_total and
// _convictions_total and reaches the journal of the PlayN call that made
// it. A Session that New or RestoreSession did not build gets no stage,
// so its plays move none of the three. A play made through the embedded
// Session field skips jmu and the journal.
func (a *Authority) Host(id string, s Session) (*HostedSession, error) {
	if id == "" {
		// The counter is monotone, so each candidate is fresh; a collision
		// only happens when a caller hand-registered "s-<k>" ahead of the
		// counter, in which case the loop simply skips past it.
		for {
			id = fmt.Sprintf("s-%d", a.nextID.Add(1))
			h, err := a.hostAt(a.shardFor(id), id, s)
			if err == nil {
				return h, nil
			}
			if !errors.Is(err, ErrSessionExists) {
				return nil, err
			}
		}
	}
	if !validSessionID(id) {
		return nil, fmt.Errorf("%w: %q (want 1-64 characters from [A-Za-z0-9._-])", ErrSessionID, id)
	}
	return a.hostAt(a.shardFor(id), id, s)
}

// hostAt installs the session into one shard under the shard lock.
func (a *Authority) hostAt(sh *authorityShard, id string, s Session) (*HostedSession, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, taken := sh.sessions[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	h := &HostedSession{Session: s, id: id, a: a}
	core.Attach(s, h.stage)
	sh.sessions[id] = h
	sessionsCreated.Inc()
	return h, nil
}

// Get returns the hosted session with the given ID.
func (a *Authority) Get(id string) (*HostedSession, error) {
	if h := a.lookup(id); h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
}

// lookup is Get without the error, for the paths that expect a miss.
func (a *Authority) lookup(id string) *HostedSession {
	sh := a.shardFor(id)
	sh.mu.RLock()
	h := sh.sessions[id]
	sh.mu.RUnlock()
	return h
}

// Remove closes and unregisters the session with the given ID, deleting
// its durable ledger (a removed session is gone, not recoverable). The
// ledger is deleted *before* the registry entry so a concurrent
// restore-on-miss cannot revive the session from a ledger that is about
// to vanish (restoreOne re-checks the ledger after hosting, and the
// registry-miss path below re-checks the registry after deleting,
// closing both halves of that race). A session the registry lost to a
// crash but the store still journals is likewise deleted without being
// revived.
func (a *Authority) Remove(id string) error {
	st := a.getStore()
	deleted := false
	for attempt := 0; ; attempt++ {
		sh := a.shardFor(id)
		sh.mu.RLock()
		h, ok := sh.sessions[id]
		sh.mu.RUnlock()
		if !ok {
			if st == nil {
				return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
			}
			journaled, lerr := st.Has(id)
			if errors.Is(lerr, store.ErrClosed) {
				// A closed store (the authority shut down) cannot be
				// consulted; report the id not found. Trade-off: a real
				// journaled session caught by a shutdown also reads as 404
				// here — its ledger is intact and the next host recovers
				// it, so the delete must be retried there.
				return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
			}
			if lerr == nil && !journaled {
				// No ledger: make sure no stale restore-failure memo
				// outlives it (a racing GetOrRecover may have memoized a
				// ledger this or an earlier Remove deleted).
				a.clearRestoreMemo(id)
				if deleted {
					return nil // a prior pass deleted the ledger; the removal stands
				}
				return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
			}
			// Journaled (a damaged ledger still probes as present) — or
			// the probe itself failed. Either way the ledger files are
			// exactly what the caller wants gone; DELETE is the one API
			// remedy for a poisoned id, so a probe failure must not block
			// it.
			if derr := st.Delete(id); derr != nil {
				return fmt.Errorf("gameauthority: remove %q: %w", id, errors.Join(ErrDurability, derr))
			}
			deleted = true
			a.clearRestoreMemo(id)
			// A recovery may have re-hosted the session between the
			// registry miss above and the ledger delete (its post-host
			// ledger re-check can pass just before the delete lands): take
			// another pass to remove the now-ledgerless session rather
			// than leaving a zombie whose every play fails journaling.
			if attempt == 0 {
				if _, err := a.Get(id); err == nil {
					continue
				}
			}
			return nil
		}
		h.dropped.Store(true) // stop journaling before the ledger goes away
		var first error
		if st != nil {
			// Decide the ledger's fate under the journal lock, mutually
			// exclusive with CreateFromSpec's journal step, restoreOne's
			// durable flip, and in-flight plays: a durable session's
			// ledger is deleted here; a volatile one has journaled nothing
			// and — having observed dropped — never will, but the id may
			// still carry a ledger no live session owns (journaled by a
			// crashed predecessor while this entry is a newer transient,
			// or mid-restore), which this delete honors too.
			h.jmu.Lock()
			if h.durable.Load() {
				if derr := st.Delete(id); derr != nil {
					first = fmt.Errorf("gameauthority: remove %q: %w", id, errors.Join(ErrDurability, derr))
				}
			} else if derr := st.Delete(id); derr != nil && !errors.Is(derr, store.ErrClosed) {
				// Delete tolerates an absent ledger, so no existence probe
				// is needed: absent is a no-op, journaled or damaged is
				// scrubbed. A closed store is skipped — a volatile session
				// needs no store work to be removed.
				first = fmt.Errorf("gameauthority: remove %q: %w", id, errors.Join(ErrDurability, derr))
			}
			h.jmu.Unlock()
			if first == nil {
				a.clearRestoreMemo(id) // the ledger is gone; a fresh id may journal anew
			}
		}
		if a.unhost(h) {
			// The goroutine that unhosted the entry owns the close; a
			// concurrent Remove that lost the race changes nothing.
			if cerr := h.Close(); cerr != nil && first == nil {
				first = cerr
			}
		}
		return first
	}
}

// clearRestoreMemo drops the restore-failure memo for id after its
// ledger was deleted (see Authority.restoreFailed).
func (a *Authority) clearRestoreMemo(id string) {
	a.restoreMu.Lock()
	delete(a.restoreFailed, id)
	a.restoreMu.Unlock()
}

// unhost removes h's registry entry if this session still owns it; it
// reports whether the caller won the removal (the winner runs Close). The
// store is never touched — ledger fate is the caller's business.
func (a *Authority) unhost(h *HostedSession) bool {
	sh := a.shardFor(h.id)
	sh.mu.Lock()
	cur, present := sh.sessions[h.id]
	owned := present && cur == h
	if owned {
		delete(sh.sessions, h.id)
	}
	sh.mu.Unlock()
	return owned
}

// Len returns the number of hosted sessions.
func (a *Authority) Len() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Sessions returns the hosted sessions sorted by ID. The listing is a
// consistent snapshot per shard, not across shards — sessions created or
// removed concurrently may or may not appear, exactly as with the
// single-lock registry observed at a slightly different instant.
func (a *Authority) Sessions() []*HostedSession {
	var out []*HostedSession
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		for _, h := range sh.sessions {
			out = append(out, h)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Close shuts the host down: every hosted session is closed in-memory,
// then the durable store is synced and closed, so everything journaled
// is on disk before Close returns. Shutdown does NOT journal session
// close records — a session closed by a host restart is not a session
// that ended, and recovery must restore it open and playable (only an
// explicit HostedSession.Close marks a session durably closed). A second
// Close stays idempotent: it finds no sessions and does not touch the
// already-closed store.
func (a *Authority) Close() error {
	var first error
	// Stop the shard loops first so every play they already accepted
	// finishes (and journals) before sessions close and the store syncs.
	if sp := a.loops.Load(); sp != nil {
		sp.Close()
	}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		sessions := sh.sessions
		sh.sessions = make(map[string]*HostedSession)
		sh.mu.Unlock()
		for _, h := range sessions {
			// Latch the close journal shut: this is host shutdown, not a
			// session close.
			h.closeLogged.Store(true)
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if st := a.getStore(); st != nil && !a.storeClosed.Swap(true) {
		if err := st.Sync(); err != nil && first == nil {
			first = err
		}
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
