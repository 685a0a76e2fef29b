// Package faults is the deterministic fault-injection plane: seeded,
// PRNG-driven schedules of disk and network failures for chaos testing
// the authority's durability and streaming layers.
//
// A Plan owns one SplitMix64 stream; every potential fault site draws
// from it and compares against the configured rate, so a given seed
// yields a reproducible fault schedule. (Under concurrency the
// *assignment* of draws to operations depends on goroutine interleaving;
// what is deterministic per seed is the draw sequence and therefore the
// overall fault mix, not which exact operation eats which fault.)
//
// Two decorators consume a Plan:
//
//   - Store wraps a store.Store and injects append failures, torn acks
//     (the record is durably applied but the acknowledgement is lost —
//     the failure mode that forces idempotent retries), snapshot and
//     fsync errors, and slow I/O.
//   - Conn wraps a net.Conn and injects latency, hard drops, and
//     mid-frame cuts (a prefix of the buffer hits the wire, then the
//     connection dies).
//
// Both count every injected fault on the plan (Injected) and in the
// process-wide gameauthority_faults_injected_total series. Reads, session
// creation, and deletion pass through un-faulted so recovery and setup
// stay deterministic; chaos aims at the steady-state write paths.
package faults

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/store"
)

// faultsInjected counts every fault any plan injects.
var faultsInjected = obs.NewCounter("gameauthority_faults_injected_total",
	"Faults injected by an attached fault plan.")

// ErrInjected is the sentinel wrapped by every injected fault, so tests
// and harnesses can tell scheduled chaos from real failures.
var ErrInjected = errors.New("faults: injected fault")

// Config sets the per-operation fault rates of a Plan. All rates are
// probabilities in [0, 1]; a zero Config injects nothing.
type Config struct {
	// Seed seeds the plan's PRNG stream.
	Seed uint64

	// AppendFail is the rate of WAL appends that fail without applying.
	AppendFail float64
	// AppendTorn is the rate of WAL appends that apply durably but
	// report an error — a lost acknowledgement, the case that makes
	// blind client retries double-apply unless the server dedupes.
	AppendTorn float64
	// SnapshotFail is the rate of snapshot writes that fail.
	SnapshotFail float64
	// SyncFail is the rate of fsyncs that fail.
	SyncFail float64
	// SlowIO is the rate of store operations delayed by IODelay.
	SlowIO float64
	// IODelay is the injected store latency (default 200µs when a SlowIO
	// rate is set).
	IODelay time.Duration

	// ConnDrop is the rate of conn reads/writes that hard-drop the
	// connection.
	ConnDrop float64
	// ConnCut is the rate of conn writes cut mid-frame: a prefix of the
	// buffer is written, then the connection dies.
	ConnCut float64
	// Latency is the rate of conn operations delayed by NetDelay.
	Latency float64
	// NetDelay is the injected network latency (default 200µs when a
	// Latency rate is set).
	NetDelay time.Duration
}

// DiskConfig is the standard disk-chaos mix at a single base rate:
// every write-path fault fires at rate (torn acks at half rate, so
// clean failures and lost acks both occur), with slow I/O at rate.
func DiskConfig(seed uint64, rate float64) Config {
	return Config{
		Seed:         seed,
		AppendFail:   rate,
		AppendTorn:   rate / 2,
		SnapshotFail: rate,
		SyncFail:     rate,
		SlowIO:       rate,
	}
}

// NetConfig is the standard network-chaos mix at a single base rate:
// latency injections at rate, hard drops and mid-frame cuts each at a
// quarter of it (connection kills are far more expensive to recover
// from than a stall, so the mix leans on latency).
func NetConfig(seed uint64, rate float64) Config {
	return Config{
		Seed:     seed,
		Latency:  rate,
		ConnDrop: rate / 4,
		ConnCut:  rate / 4,
	}
}

// Plan is one seeded fault schedule. The zero value injects nothing;
// build real plans with NewPlan. A Plan is safe for concurrent use.
type Plan struct {
	cfg      Config
	mu       sync.Mutex
	src      prng.Source
	injected atomic.Int64
}

// NewPlan builds a plan from cfg, applying default delays.
func NewPlan(cfg Config) *Plan {
	if cfg.IODelay <= 0 {
		cfg.IODelay = 200 * time.Microsecond
	}
	if cfg.NetDelay <= 0 {
		cfg.NetDelay = 200 * time.Microsecond
	}
	p := &Plan{cfg: cfg}
	// Domain-separation label for the plan stream ("faultpln" as bytes),
	// so a shared root seed does not correlate faults with game draws.
	p.src.Seed(prng.Mix(cfg.Seed, 0x6661756c74706c6e))
	return p
}

// Injected reports how many faults the plan has injected so far.
func (p *Plan) Injected() int64 {
	if p == nil {
		return 0
	}
	return p.injected.Load()
}

// roll draws once from the plan's stream and reports whether a fault at
// the given rate fires. A nil plan or non-positive rate never fires and
// draws nothing, so disabled fault kinds do not perturb the schedule of
// enabled ones.
func (p *Plan) roll(rate float64) bool {
	if p == nil || rate <= 0 {
		return false
	}
	p.mu.Lock()
	v := p.src.Uint64()
	p.mu.Unlock()
	// Map the top 53 bits to [0, 1).
	if float64(v>>11)/(1<<53) >= rate {
		return false
	}
	p.injected.Add(1)
	faultsInjected.Inc()
	return true
}

// --- Store decorator -----------------------------------------------------------

// Store wraps inner so its write paths fail according to the plan.
func (p *Plan) Store(inner store.Store) store.Store {
	return &faultStore{p: p, inner: inner}
}

type faultStore struct {
	p     *Plan
	inner store.Store
}

func (s *faultStore) slow() {
	if s.p.roll(s.p.cfg.SlowIO) {
		time.Sleep(s.p.cfg.IODelay)
	}
}

func (s *faultStore) CreateSession(id string, spec []byte) error {
	return s.inner.CreateSession(id, spec)
}

// Append injects the write-path disk faults. Both fault kinds treat the
// record as a unit regardless of its type: an AppendFail drops the whole
// record (for a batch record, none of its plays reach the WAL), and an
// AppendTorn applies the whole record durably before losing the ack (for
// a batch record, every play in the batch is journaled). There is no
// partially-applied middle ground at this layer — a batch is one WAL
// line with one checksum, so torn-batch semantics are
// all-applied-ack-lost or nothing, exactly what the dedup/retry path
// assumes.
func (s *faultStore) Append(id string, rec store.Record) error {
	s.slow()
	if s.p.roll(s.p.cfg.AppendFail) {
		return fmt.Errorf("append %q: %w", id, ErrInjected)
	}
	if s.p.roll(s.p.cfg.AppendTorn) {
		if err := s.inner.Append(id, rec); err != nil {
			return err
		}
		return fmt.Errorf("append %q: ack lost: %w", id, ErrInjected)
	}
	return s.inner.Append(id, rec)
}

func (s *faultStore) PutSnapshot(id string, rounds int, payload []byte) error {
	s.slow()
	if s.p.roll(s.p.cfg.SnapshotFail) {
		return fmt.Errorf("snapshot %q: %w", id, ErrInjected)
	}
	return s.inner.PutSnapshot(id, rounds, payload)
}

func (s *faultStore) Sync() error {
	s.slow()
	if s.p.roll(s.p.cfg.SyncFail) {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return s.inner.Sync()
}

func (s *faultStore) Delete(id string) error { return s.inner.Delete(id) }

func (s *faultStore) IDs() ([]string, error) { return s.inner.IDs() }

func (s *faultStore) Load() ([]store.SessionState, error) { return s.inner.Load() }

func (s *faultStore) LoadSession(id string) (store.SessionState, bool, error) {
	return s.inner.LoadSession(id)
}

func (s *faultStore) Has(id string) (bool, error) { return s.inner.Has(id) }

func (s *faultStore) Snapshots() ([]store.SnapshotInfo, error) { return s.inner.Snapshots() }

func (s *faultStore) Close() error { return s.inner.Close() }

// --- Conn decorator ------------------------------------------------------------

// Conn wraps inner so reads and writes fail according to the plan.
func (p *Plan) Conn(inner net.Conn) net.Conn {
	return &faultConn{p: p, Conn: inner}
}

type faultConn struct {
	p *Plan
	net.Conn
}

func (c *faultConn) Read(b []byte) (int, error) {
	if c.p.roll(c.p.cfg.Latency) {
		time.Sleep(c.p.cfg.NetDelay)
	}
	if c.p.roll(c.p.cfg.ConnDrop) {
		c.Conn.Close()
		return 0, fmt.Errorf("read: connection dropped: %w", ErrInjected)
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.p.roll(c.p.cfg.Latency) {
		time.Sleep(c.p.cfg.NetDelay)
	}
	if c.p.roll(c.p.cfg.ConnDrop) {
		c.Conn.Close()
		return 0, fmt.Errorf("write: connection dropped: %w", ErrInjected)
	}
	if len(b) > 1 && c.p.roll(c.p.cfg.ConnCut) {
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, fmt.Errorf("write: cut mid-frame after %d/%d bytes: %w", n, len(b), ErrInjected)
	}
	return c.Conn.Write(b)
}

// --- Listener decorator --------------------------------------------------------

// Listener wraps inner so every accepted connection is fault-wrapped —
// the server-side hook for network chaos (gameauthd -chaos-net).
func (p *Plan) Listener(inner net.Listener) net.Listener {
	return &faultListener{p: p, Listener: inner}
}

type faultListener struct {
	p *Plan
	net.Listener
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.Conn(conn), nil
}
