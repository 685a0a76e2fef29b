package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common errors.
var (
	// ErrClosed is returned by every operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrUnknownSession is returned when appending to or snapshotting a
	// session the store has never seen.
	ErrUnknownSession = errors.New("store: unknown session")
	// ErrSessionExists is returned when creating a session id twice.
	ErrSessionExists = errors.New("store: session already exists")
	// ErrLegacyLayout is returned by NewFile for a sessions directory
	// written in the retired three-file layout (<id>.spec, <id>.wal and
	// <id>.snap per session), which the File store does not read.
	ErrLegacyLayout = errors.New("store: sessions directory holds the retired three-file layout (.spec/.wal/.snap per session)")
	// ErrLegacyFormat refuses a session file without the binary magic.
	ErrLegacyFormat = errors.New("store: session file is not in the binary frame format")
)

const hashLen = 64 // a transcript hash's hex digits

// Record kinds journaled in a session's WAL.
const (
	// RecordPlay journals one completed play: its absolute round index,
	// the canonical transcript hash, and the verdict/conviction summary.
	RecordPlay = "play"
	// RecordClose journals a graceful session close, with the post-close
	// state digest (a batched-audit mixed session mutates state on close).
	RecordClose = "close"
	// RecordBatch journals N consecutive completed plays as one WAL entry
	// (the PlayN path). The batch is one journal frame, so the frame CRC
	// makes it atomic: a crash either persists every play in the batch or
	// none of them — recovery never sees a torn prefix of a batch.
	RecordBatch = "batch"
)

// BatchPlay is one play inside a RecordBatch entry, carrying the same
// per-play summary a RecordPlay would.
type BatchPlay struct {
	Round     int    `json:"round"`
	Hash      string `json:"hash"`
	Fouls     int    `json:"fouls,omitempty"`
	Convicted []int  `json:"convicted,omitempty"`
}

// Record is one WAL entry. Play records carry Round/Hash (plus the
// verdict summary); batch records carry Plays; close records carry
// Digest.
type Record struct {
	Type string `json:"t"`
	// Round is the absolute round index of a play record.
	Round int `json:"round,omitempty"`
	// Hash is the canonical transcript hash of the play (core.HashResult) —
	// recovery verifies each replayed play against it.
	Hash string `json:"hash,omitempty"`
	// Fouls is the number of fouls the judicial service found in the play.
	Fouls int `json:"fouls,omitempty"`
	// Convicted lists the agents found guilty in the play's verdict.
	Convicted []int `json:"convicted,omitempty"`
	// Plays holds the per-play summaries of a batch record, in round order.
	Plays []BatchPlay `json:"plays,omitempty"`
	// Digest is the post-close state digest of a close record.
	Digest string `json:"digest,omitempty"`
}

// LastRound returns the highest absolute round index the record covers,
// or -1 for records that carry no round (close records, empty batches).
func (r *Record) LastRound() int {
	switch r.Type {
	case RecordPlay:
		return r.Round
	case RecordBatch:
		if n := len(r.Plays); n > 0 {
			return r.Plays[n-1].Round
		}
	}
	return -1
}

// SessionState is everything the store holds for one session: the opaque
// creation spec, the latest compacted snapshot (if any), and the WAL tail
// of records at or after the snapshot's round watermark.
type SessionState struct {
	ID string
	// Spec is the opaque serialized session spec (the façade journals the
	// HTTP CreateSessionRequest JSON).
	Spec []byte
	// SnapshotRounds is the round watermark of Snapshot (0 when none).
	SnapshotRounds int
	// Snapshot is the opaque latest snapshot payload (nil when none).
	Snapshot []byte
	// Tail holds the WAL records after the snapshot watermark, in append
	// order.
	Tail []Record
	// Closed reports whether a close record was journaled; CloseDigest is
	// its post-close state digest.
	Closed      bool
	CloseDigest string
}

// SnapshotInfo is one GET /snapshots listing entry: which sessions have a
// compacted snapshot and at which round watermark.
type SnapshotInfo struct {
	ID      string
	Rounds  int
	Payload []byte
}

// Store is a pluggable persistence backend for authority sessions. All
// methods are safe for concurrent use; operations on distinct sessions do
// not serialize against each other (beyond backend I/O).
//
// Durability contract: Append and PutSnapshot must survive a process kill
// (SIGKILL) as soon as they return; Sync additionally flushes to stable
// storage so the data survives an OS crash. Close implies Sync.
type Store interface {
	// CreateSession durably records a new session's opaque spec. It fails
	// with ErrSessionExists when the id is already journaled.
	CreateSession(id string, spec []byte) error
	// Append journals one WAL record for the session: a play or batch
	// record whose hashes are 64 lowercase hex digits, or a close record
	// with none. A session's
	// records arrive in round order — each one's rounds follow the
	// previous one's — and a close record, if any, comes last: the File
	// store's compaction relies on it. rec's slices — Plays, Convicted
	// and each play's Convicted — belong to the caller and are valid only
	// until Append returns (the authority reuses a request's Plays for a
	// later one), so a store that keeps any of them copies it, as Mem
	// does. rec's strings are immutable and may be kept.
	Append(id string, rec Record) error
	// PutSnapshot atomically replaces the session's snapshot with payload
	// at the given round watermark and compacts the WAL, dropping the
	// records the watermark covers (see covered).
	PutSnapshot(id string, rounds int, payload []byte) error
	// Delete removes every trace of the session (spec, WAL, snapshot).
	Delete(id string) error
	// IDs lists every persisted session id, sorted, without reading any
	// journal — recovery workers load states individually so I/O overlaps
	// replay and memory stays bounded to in-flight sessions.
	IDs() ([]string, error)
	// Load reads every persisted session's state, sorted by id.
	Load() ([]SessionState, error)
	// LoadSession reads one session's state; ok is false when the id is
	// not persisted.
	LoadSession(id string) (st SessionState, ok bool, err error)
	// Has reports whether the id is persisted, without reading its
	// journal.
	Has(id string) (bool, error)
	// Snapshots lists the sessions holding a compacted snapshot, sorted
	// by id.
	Snapshots() ([]SnapshotInfo, error)
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close syncs and releases the backend. Close is idempotent.
	Close() error
}

// --- In-memory backend ---------------------------------------------------------

// memSession is one session's in-memory journal.
type memSession struct {
	spec           []byte
	snapshotRounds int
	snapshot       []byte
	wal            []Record
}

// Mem is the in-memory Store: full WAL/snapshot semantics with no I/O.
// It survives the Authority that wrote it (crash-simulation harnesses
// abandon an authority and recover a fresh one from the same Mem), but
// not the process.
type Mem struct {
	mu       sync.RWMutex
	sessions map[string]*memSession
	closed   bool
}

// NewMem creates an empty in-memory store.
func NewMem() *Mem {
	return &Mem{sessions: make(map[string]*memSession)}
}

var _ Store = (*Mem)(nil)

// CreateSession implements Store.
func (m *Mem) CreateSession(id string, spec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.sessions[id]; ok {
		return fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	m.sessions[id] = &memSession{spec: append([]byte(nil), spec...)}
	return nil
}

// Append implements Store.
func (m *Mem) Append(id string, rec Record) error {
	if err := checkRecord(&rec); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	rec.Convicted = append([]int(nil), rec.Convicted...)
	rec.Plays = append([]BatchPlay(nil), rec.Plays...)
	for i := range rec.Plays {
		rec.Plays[i].Convicted = append([]int(nil), rec.Plays[i].Convicted...)
	}
	s.wal = append(s.wal, rec)
	return nil
}

// PutSnapshot implements Store.
func (m *Mem) PutSnapshot(id string, rounds int, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	s.snapshotRounds = rounds
	s.snapshot = append([]byte(nil), payload...)
	s.wal = compactWAL(s.wal, rounds)
	return nil
}

// checkRecord enforces Append's record contract, one for both backends.
func checkRecord(rec *Record) error {
	ok := rec.Type == RecordPlay && validHash(rec.Hash) ||
		rec.Hash == "" && (rec.Type == RecordBatch || rec.Type == RecordClose)
	for i := 0; ok && i < len(rec.Plays); i++ {
		ok = validHash(rec.Plays[i].Hash)
	}
	if !ok {
		return fmt.Errorf("store: a %q record outside the Append contract", rec.Type)
	}
	return nil
}

// validHash reports whether h is hashLen lowercase hex digits.
func validHash(h string) bool {
	for i := range len(h) {
		if c := h[i]; c-'0' > 9 && c-'a' > 5 {
			return false
		}
	}
	return len(h) == hashLen
}

// covered reports whether a snapshot at the rounds watermark makes rec
// redundant: a play or batch record whose last round lies below it. A
// batch straddling the watermark survives whole — recovery replays from
// round zero anyway, so its covered prefix is harmless, while dropping it
// would lose the uncovered suffix — and a close record always survives.
func covered(rec *Record, rounds int) bool {
	return rec.Type != RecordClose && rec.LastRound() < rounds
}

// compactWAL drops the records a snapshot at rounds covers.
func compactWAL(wal []Record, rounds int) []Record {
	out := wal[:0]
	for i := range wal {
		if !covered(&wal[i], rounds) {
			out = append(out, wal[i])
		}
	}
	return out
}

// Delete implements Store.
func (m *Mem) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	delete(m.sessions, id)
	return nil
}

// Has implements Store.
func (m *Mem) Has(id string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	_, ok := m.sessions[id]
	return ok, nil
}

// IDs implements Store.
func (m *Mem) IDs() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Load implements Store.
func (m *Mem) Load() ([]SessionState, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	out := make([]SessionState, 0, len(m.sessions))
	for id, s := range m.sessions {
		out = append(out, m.stateOf(id, s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// LoadSession implements Store.
func (m *Mem) LoadSession(id string) (SessionState, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return SessionState{}, false, ErrClosed
	}
	s, ok := m.sessions[id]
	if !ok {
		return SessionState{}, false, nil
	}
	return m.stateOf(id, s), true, nil
}

// stateOf copies one session's journal out under the store lock. The tail
// re-applies the snapshot watermark: a play record appended concurrently
// with a compaction may sit below it in the raw WAL.
func (m *Mem) stateOf(id string, s *memSession) SessionState {
	st := SessionState{
		ID:             id,
		Spec:           append([]byte(nil), s.spec...),
		SnapshotRounds: s.snapshotRounds,
		Snapshot:       append([]byte(nil), s.snapshot...),
		Tail:           compactWAL(append([]Record(nil), s.wal...), s.snapshotRounds),
	}
	finishState(&st)
	return st
}

// finishState derives the Closed/CloseDigest summary from the WAL tail.
func finishState(st *SessionState) {
	if len(st.Snapshot) == 0 {
		st.Snapshot = nil
	}
	for _, rec := range st.Tail {
		if rec.Type == RecordClose {
			st.Closed = true
			st.CloseDigest = rec.Digest
		}
	}
}

// Snapshots implements Store.
func (m *Mem) Snapshots() ([]SnapshotInfo, error) { return snapshotsOf(m.Load()) }

// snapshotsOf lists the loaded states that hold a snapshot: Snapshots,
// for both backends, over their Load.
func snapshotsOf(states []SessionState, err error) ([]SnapshotInfo, error) {
	var out []SnapshotInfo
	for _, st := range states {
		if st.Snapshot != nil {
			out = append(out, SnapshotInfo{ID: st.ID, Rounds: st.SnapshotRounds, Payload: st.Snapshot})
		}
	}
	return out, err
}

// Sync implements Store (a no-op in memory).
func (m *Mem) Sync() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
