package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gameauthority/internal/obs"
)

// Durability-path telemetry: whole-append latency (write + commit park),
// individual fsync latency, and whole-epoch flush latency. Recording is
// allocation-free; see DESIGN.md §14.
var (
	walAppendLatency = obs.NewHistogram("gameauthority_wal_append_seconds",
		"Latency of one WAL append, including any group-commit park.")
	fsyncLatency = obs.NewHistogram("gameauthority_fsync_seconds",
		"Latency of one fsync/syncfs barrier against a session WAL.")
	commitEpochLatency = obs.NewHistogram("gameauthority_commit_epoch_seconds",
		"Latency of one group-commit epoch flush (detach to wakeup).")
)

// File layout: one file per session, <dir>/sessions/<id>.wal. Each line
// is "<crc32c-hex> <json>\n", the checksum covering the JSON bytes, so a
// torn or corrupted tail (the half-written line of a crash) is detected
// and dropped instead of poisoning recovery. The first line is the spec,
// the second — once the session has been compacted — its latest
// snapshot, and the session's records follow in round order. Create and
// compaction each write the whole file through one atomicWrite, delete
// is one unlink and load one read, so a crash leaves the old file or the
// new one, never a session in pieces.

// The File store's own head lines: the spec, first in every session file,
// and the snapshot, second when present. They are not Records a caller
// can append.
const (
	lineSpec = "spec"
	lineSnap = "snap"
)

// fileLine is the JSON of one session-file line: a Record, or a head line
// whose opaque bytes travel base64-encoded.
type fileLine struct {
	Record
	Spec    []byte `json:"spec,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// fileStripes is the per-session lock striping width (power of two).
const fileStripes = 64

// defaultMaxHandles bounds the WAL file handles kept open for appends, so
// thousands of durable sessions do not exhaust the process fd limit.
const defaultMaxHandles = 128

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// File is the file-backed Store. Appends go through a bounded cache of
// O_APPEND handles (evicted handles are fsynced before close); sessions
// stripe onto fileStripes locks so distinct sessions rarely serialize.
type File struct {
	dir string // the sessions directory

	stripes [fileStripes]sync.Mutex

	mu       sync.Mutex // guards handles, repaired, closed
	handles  map[string]*walHandle
	repaired map[string]struct{} // ids whose WAL tail was checked this process
	max      int
	closed   bool

	// evictions tracks in-flight evicted-handle syncs, which run outside
	// mu so one slow fsync cannot stall every session's handle lookup.
	// Sync and Close wait on it so "synced on eviction" stays true by the
	// time either returns.
	evictions sync.WaitGroup

	// gc is the optional group committer (see SetGroupCommit); nil means
	// appends return as soon as the line is written (process-kill durable,
	// OS-crash durable only after Sync/Close/eviction).
	gc atomic.Pointer[groupCommitter]

	// fsyncs counts every fsync issued against a session WAL handle —
	// commit epochs, evictions, invalidations, Sync, and Close alike. The
	// group-commit regression gate reads it through Fsyncs.
	fsyncs atomic.Int64
	epochs atomic.Int64
}

// walHandle wraps one session's append handle. Writes and the
// evict-time fsync+close serialize on mu, so an append can never land
// between an eviction's Sync and its Close (which would leave an
// acknowledged record no later Store.Sync could reach). f is nil once
// the handle is closed; writers seeing nil reopen through the cache.
type walHandle struct {
	mu sync.Mutex
	f  *os.File
}

var _ Store = (*File)(nil)

// NewFile opens (creating if needed) a file store rooted at dir. A
// sessions directory holding .spec or .snap files was written in the
// retired three-file layout and is refused with ErrLegacyLayout.
func NewFile(dir string) (*File, error) {
	sessions := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessions, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(sessions)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext == ".spec" || ext == ".snap" {
			return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, filepath.Join(sessions, e.Name()))
		}
	}
	return &File{
		dir:      sessions,
		handles:  make(map[string]*walHandle),
		repaired: make(map[string]struct{}),
		max:      defaultMaxHandles,
	}, nil
}

// validID rejects ids that could escape the sessions directory. The
// Authority already restricts ids to [A-Za-z0-9._-]{1,64}; this is the
// backend's own defense.
func validID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > 64 {
		return false
	}
	return !strings.ContainsAny(id, "/\\")
}

func (f *File) stripe(id string) *sync.Mutex {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &f.stripes[h&(fileStripes-1)]
}

func (f *File) path(id, ext string) string {
	return filepath.Join(f.dir, id+ext)
}

// CreateSession implements Store: the session file is born whole, holding
// its spec line, through one atomicWrite.
func (f *File) CreateSession(id string, spec []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: invalid id %q", ErrUnknownSession, id)
	}
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	path := f.path(id, ".wal")
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	line, err := appendLine(nil, fileLine{Record: Record{Type: lineSpec}, Spec: spec})
	if err != nil {
		return err
	}
	if err := atomicWrite(path, line); err != nil {
		return err
	}
	f.mu.Lock()
	if !f.closed {
		f.repaired[id] = struct{}{} // a brand-new file needs no tail repair
	}
	f.mu.Unlock()
	return nil
}

// checkOpen reports ErrClosed after Close.
func (f *File) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Append implements Store. With group commit enabled (SetGroupCommit)
// the record is written immediately — surviving a process kill exactly
// like the direct path — and the call then takes a ticket on a commit
// epoch: it either leads the epoch's flush itself or parks until the
// epoch's leader has flushed, so on return the record also survives an OS
// crash at a cost shared with every append on the same epoch.
func (f *File) Append(id string, rec Record) error {
	if !validID(id) {
		return fmt.Errorf("%w: invalid id %q", ErrUnknownSession, id)
	}
	t0 := time.Now()
	span := obs.DefaultTracer.Begin("wal.append", "store", 0, int64(rec.LastRound()))
	err := f.appendRecord(id, rec)
	span.End()
	walAppendLatency.Record(time.Since(t0))
	return err
}

// appendRecord is Append between its span's two ends.
func (f *File) appendRecord(id string, rec Record) error {
	line, err := appendLine(nil, rec)
	if err != nil {
		return err
	}
	wh, err := f.writeLine(id, line)
	if err != nil {
		return err
	}
	// Commit outside the stripe lock: other sessions on the stripe (and
	// later appends to this one — ordering is the caller's journal mutex)
	// must not serialize behind a flush.
	if gc := f.gc.Load(); gc != nil {
		if err := gc.commit(wh); err != nil {
			return fmt.Errorf("store: commit %q: %w", id, err)
		}
	}
	return nil
}

// writeLine appends one encoded line to the session's WAL under its
// stripe lock and returns the handle it landed on.
func (f *File) writeLine(id string, line []byte) (*walHandle, error) {
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	for attempt := 0; attempt < 16; attempt++ {
		wh, err := f.handle(id)
		if err != nil {
			return nil, err
		}
		wh.mu.Lock()
		if wh.f == nil {
			// Evicted between the cache lookup and the write lock; the
			// eviction fsynced everything it closed over. Reopen.
			wh.mu.Unlock()
			f.forgetHandle(id, wh)
			continue
		}
		_, werr := wh.f.Write(line)
		wh.mu.Unlock()
		if werr != nil {
			// The line may be partially on disk (short write on a full
			// disk): retire the handle and its repair latch so the next
			// append re-runs repairWAL and resumes on a clean boundary,
			// instead of gluing onto the fragment and escalating the torn
			// line into permanent mid-file corruption.
			f.invalidateHandle(id, wh)
			return nil, fmt.Errorf("store: append %q: %w", id, werr)
		}
		return wh, nil
	}
	return nil, fmt.Errorf("store: append %q: handle churned out", id)
}

// invalidateHandle retires a handle whose last write failed. The handle
// is fsynced before closing (earlier acknowledged records keep the
// synced-on-retire contract) and the repair latch cleared; the caller
// holds the session's stripe lock.
func (f *File) invalidateHandle(id string, wh *walHandle) {
	f.closeHandle(wh)
	f.mu.Lock()
	if cur, ok := f.handles[id]; ok && cur == wh {
		delete(f.handles, id)
	}
	delete(f.repaired, id)
	f.mu.Unlock()
}

// forgetHandle removes the cache entry for id if it still maps to the
// given (already closed) handle.
func (f *File) forgetHandle(id string, wh *walHandle) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.handles[id]; ok && cur == wh {
		delete(f.handles, id)
	}
}

// handle returns (opening if needed) the cached append handle for id. The
// caller holds the session's stripe lock.
func (f *File) handle(id string) (*walHandle, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if wh, ok := f.handles[id]; ok {
		f.mu.Unlock()
		return wh, nil
	}
	_, checked := f.repaired[id]
	f.mu.Unlock()

	path := f.path(id, ".wal")
	// A crash may have left a half-written final line. O_APPEND would glue
	// the next record onto that fragment — corrupting an acknowledged write
	// and, once valid records follow it, turning a tolerable torn tail into
	// the mid-file corruption the reader refuses. Truncate to the last
	// clean line boundary before any append can land. Once per session per
	// process: everything this process wrote is clean, so cache-churn
	// reopens skip the scan.
	if !checked {
		if err := repairWAL(id, path); err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.repaired[id] = struct{}{}
		f.mu.Unlock()
	}
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f.cacheHandle(id, w), nil
}

// closeHandle fsyncs and closes one cached handle under its write lock,
// so no append can slip in between the sync and the close. Callers may
// hold f.mu (lock order is f.mu → walHandle.mu) or run lock-free on a
// handle already removed from the cache (eviction). Under a syncfs-armed
// committer the fsync is skipped: every acknowledged record on the
// handle already crossed an epoch barrier, and any unacknowledged tail
// is covered by the epoch its appender holds a ticket on — syncfs flushes
// a closed fd's dirty pages all the same. Without that skip, handle-cache
// churn above max sessions costs one fsync per append and dominates the
// durable write path.
func (f *File) closeHandle(wh *walHandle) {
	syncfs := f.gc.Load().syncfs()
	wh.mu.Lock()
	defer wh.mu.Unlock()
	if wh.f != nil {
		if !syncfs {
			_ = wh.f.Sync()
			f.fsyncs.Add(1)
		}
		wh.f.Close()
		wh.f = nil
	}
}

// cacheHandle installs a handle, evicting an arbitrary other one (fsynced
// before close) when the cache is full. Losing a race to another opener
// just closes the newcomer and returns the winner. Victims are removed
// from the map under f.mu but synced+closed after it is released, so one
// slow fsync does not stall every other session's handle lookup; the
// evictions WaitGroup lets Sync and Close wait those syncs out. A
// straggler append on an evicted handle is safe: it serialized on the
// handle's own lock before the sync, or sees f == nil and reopens — and
// O_APPEND keeps whole-line writes from the brief old/new fd overlap
// intact (per-session appends serialize on the stripe lock anyway).
func (f *File) cacheHandle(id string, w *os.File) *walHandle {
	f.mu.Lock()
	wh := &walHandle{f: w}
	if f.closed {
		f.mu.Unlock()
		w.Close()
		wh.f = nil
		return wh // Append sees f == nil and fails through handle() → ErrClosed
	}
	if prev, ok := f.handles[id]; ok {
		f.mu.Unlock()
		w.Close()
		return prev
	}
	var victims []*walHandle
	for len(f.handles) >= f.max {
		evicted := false
		for other, oh := range f.handles {
			if other == id {
				continue
			}
			victims = append(victims, oh)
			delete(f.handles, other)
			evicted = true
			break
		}
		if !evicted {
			break // only this id is cached; nothing to evict
		}
	}
	f.handles[id] = wh
	f.evictions.Add(len(victims))
	f.mu.Unlock()
	for _, oh := range victims {
		f.closeHandle(oh)
		f.evictions.Done()
	}
	return wh
}

// dropHandle closes and forgets the cached handle for id (used before a
// compaction rewrite or delete replaces the file under it). No fsync:
// every caller immediately discards the inode — compaction re-persists
// the surviving records through atomicWrite, deletion unlinks them — so
// syncing here would only stall other sessions' lookups on f.mu.
func (f *File) dropHandle(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if wh, ok := f.handles[id]; ok {
		wh.mu.Lock()
		if wh.f != nil {
			wh.f.Close()
			wh.f = nil
		}
		wh.mu.Unlock()
		delete(f.handles, id)
	}
}

// PutSnapshot implements Store: one atomicWrite replaces the session file
// with its compaction (see compact).
func (f *File) PutSnapshot(id string, rounds int, payload []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: invalid id %q", ErrUnknownSession, id)
	}
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	path := f.path(id, ".wal")
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	case err != nil:
		return fmt.Errorf("store: %w", err)
	}
	if data, err = compact(id, data, rounds, payload); err != nil {
		return err
	}
	if err := atomicWrite(path, data); err != nil {
		// The old file (and its cached handle) stays live, so Sync/Close
		// still reach any un-flushed appends.
		return err
	}
	// Only now is the old inode truly discarded: drop the cached handle
	// that still points at it (no append can interleave — the caller
	// holds the stripe lock).
	f.dropHandle(id)
	return nil
}

// compact returns the session file data becomes under a snapshot at the
// rounds watermark: its spec line, the new snapshot line, and the record
// lines the snapshot does not cover, copied byte for byte. Records arrive
// in round order with a close record last (the Store contract), so the
// covered ones are a prefix: the walk back from the end decodes only the
// uncovered suffix and the newest covered record, never the log it drops.
// The spec line is copied only once its checksum and type check out.
func compact(id string, data []byte, rounds int, payload []byte) ([]byte, error) {
	n := bytes.IndexByte(data, '\n')
	if n < 0 {
		n = len(data)
	}
	if l, ok := parseLine(data[:n]); !ok || l.Type != lineSpec {
		return nil, errNoSpec(id)
	}
	head := n + 1
	// [keep, end) is the uncovered suffix, less its last newline.
	keep, end := -1, -1
	hi := len(data)
	if hi > head && data[hi-1] == '\n' {
		hi-- // the file's last newline ends its last line
	}
walk:
	for hi >= head {
		lo := head + bytes.LastIndexByte(data[head:hi], '\n') + 1
		l, ok := parseLine(data[lo:hi])
		switch {
		case !ok && end >= 0:
			return nil, fmt.Errorf("store: %q: corrupt line before a valid one", id)
		case !ok:
			// The torn tail of a crash: those plays were never acknowledged.
		case l.Type == lineSpec || l.Type == lineSnap || covered(&l.Record, rounds):
			break walk
		default:
			keep = lo
			if end < 0 {
				end = hi
			}
		}
		hi = lo - 1
	}
	buf, err := appendLine(append(append([]byte(nil), data[:n]...), '\n'),
		fileLine{Record: Record{Type: lineSnap}, Rounds: rounds, Payload: payload})
	if err == nil && end >= 0 {
		buf = append(append(buf, data[keep:end]...), '\n')
	}
	return buf, err
}

// Delete implements Store: one unlink.
func (f *File) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("%w: invalid id %q", ErrUnknownSession, id)
	}
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.dropHandle(id)
	f.mu.Lock()
	delete(f.repaired, id)
	f.mu.Unlock()
	switch err := os.Remove(f.path(id, ".wal")); {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("store: delete %q: %w", id, err)
	}
	// Persist the unlink: without the directory fsync an OS crash can
	// bring the file back, resurrecting a session the caller was told is
	// gone — the same reason every create and rename syncs the directory.
	return syncDir(f.dir)
}

// IDs implements Store: the session files, sorted.
func (f *File) IDs() ([]string, error) {
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".wal"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Load implements Store.
func (f *File) Load() ([]SessionState, error) {
	ids, err := f.IDs()
	if err != nil {
		return nil, err
	}
	out := make([]SessionState, 0, len(ids))
	for _, id := range ids {
		st, ok, err := f.LoadSession(id)
		if err != nil {
			return nil, err
		}
		if ok { // deleted between the listing and the load
			out = append(out, st)
		}
	}
	return out, nil
}

// LoadSession implements Store: one read of the session file, under its
// stripe lock. A file that does not exist — a concurrent Delete included —
// reads as session absent, not as a store failure.
func (f *File) LoadSession(id string) (SessionState, bool, error) {
	if err := f.checkOpen(); err != nil {
		return SessionState{}, false, err
	}
	if !validID(id) {
		return SessionState{}, false, nil
	}
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	data, err := os.ReadFile(f.path(id, ".wal"))
	if errors.Is(err, fs.ErrNotExist) {
		return SessionState{}, false, nil
	}
	if err != nil {
		return SessionState{}, false, fmt.Errorf("store: %w", err)
	}
	st, _, err := parseSession(id, data)
	return st, err == nil, err
}

// Has implements Store.
func (f *File) Has(id string) (bool, error) {
	if err := f.checkOpen(); err != nil {
		return false, err
	}
	if !validID(id) {
		return false, nil
	}
	if _, err := os.Stat(f.path(id, ".wal")); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("store: %w", err)
	}
	return true, nil
}

// Snapshots implements Store.
func (f *File) Snapshots() ([]SnapshotInfo, error) { return snapshotsOf(f.Load()) }

// Sync implements Store: fsync every open WAL handle (evicted handles were
// synced on eviction; create and compaction sync through atomicWrite).
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	// Evictions sync outside f.mu; wait them out so everything written
	// before this call is durable when it returns. In-flight evictions
	// complete without f.mu, and no new one can start while we hold it.
	f.evictions.Wait()
	// Under a syncfs-armed committer one filesystem barrier covers every
	// handle — cached, evicted, or closed — in a single journal commit.
	// A private dir fd avoids racing the committer's own (closed on stop).
	if f.gc.Load().syncfs() {
		if d, err := os.Open(f.dir); err == nil {
			ok, serr := syncFilesystem(d.Fd())
			d.Close()
			if ok {
				f.fsyncs.Add(1)
				if serr != nil {
					return fmt.Errorf("store: sync: %w", serr)
				}
				return nil
			}
		}
	}
	var first error
	for id, wh := range f.handles {
		wh.mu.Lock()
		if wh.f != nil {
			if err := wh.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("store: sync %q: %w", id, err)
			}
			f.fsyncs.Add(1)
		}
		wh.mu.Unlock()
	}
	return first
}

// Close implements Store: stop the group committer (every queued commit
// epoch drains first, so no parked append leaks), sync, release every
// handle, and refuse further writes. Idempotent.
func (f *File) Close() error {
	f.stopCommitter()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.evictions.Wait() // see Sync: evicted-handle fsyncs must land too
	var first error
	for _, wh := range f.handles {
		wh.mu.Lock()
		if wh.f != nil {
			if err := wh.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("store: %w", err)
			}
			f.fsyncs.Add(1)
			wh.f.Close()
			wh.f = nil
		}
		wh.mu.Unlock()
	}
	f.handles = nil
	return first
}

// --- Group commit --------------------------------------------------------------

// Group commit is leader/follower, with no clock and no goroutine of its
// own. One flush runs at a time; whoever runs it holds the baton
// (groupCommitter.flushing). An append that finds the baton free takes it
// and flushes at once, alone. An append that finds it taken takes a ticket
// on the newest queued epoch instead — the first ticket of an epoch is its
// leader, the rest its followers — and parks. When a flush ends the baton
// goes to the leader of the oldest queued epoch, which flushes and releases
// its followers; with nothing queued the baton goes back to free. So an
// idle committer costs nothing, a lone appender waits only for its own
// barrier, and under load an epoch holds whatever arrived during the flush
// before it: the device's latency, not a timer, sets the batch size.

// commitEpoch is one queued fsync barrier: the appends that arrived while
// an earlier flush was in flight. Its first ticket parks on lead and runs
// the flush; every other ticket parks on done and reads err afterwards.
// Epochs are recycled through groupCommitter.free once the last ticket has
// let go, so a follower epoch allocates nothing after the first few.
type commitEpoch struct {
	tickets int
	// dirty is the set of handles to fsync; nil under syncfs, where one
	// barrier covers every handle.
	dirty map[*walHandle]struct{}
	lead  chan struct{}  // capacity 1: the baton, handed to the epoch's leader
	done  sync.WaitGroup // holds 1 until the epoch has flushed
	err   error          // written by the leader before done opens
	refs  atomic.Int32   // tickets still holding the epoch after done opened
	next  *commitEpoch   // queue link, then free-list link
}

// groupCommitter coalesces appends from many sessions into shared fsync
// epochs (see the protocol above).
type groupCommitter struct {
	f        *File
	maxBatch int
	onEpoch  func(synced, parked int)

	// dir is the open sessions directory used as the syncfs(2) anchor:
	// when non-nil, an epoch flushes with one filesystem-wide barrier
	// instead of one fsync per dirty handle. It is probed once when the
	// committer is armed and never changes afterwards — pinning the flush
	// mode for the committer's lifetime is what lets closeHandle skip its
	// fsync — and is closed by stopCommitter after the last flush.
	dir *os.File

	mu       sync.Mutex
	flushing bool         // the baton: a flush is in flight or being handed over
	head     *commitEpoch // oldest queued epoch, next to flush
	tail     *commitEpoch // newest queued epoch, the one open to new tickets
	queued   int          // tickets on queued epochs
	free     *commitEpoch
	stopped  bool
	idle     sync.Cond // on mu; signaled when the baton goes back to free
}

// SetGroupCommit turns on group commit: every append returns OS-crash
// durable, having either flushed its own commit epoch or parked on one
// that another append led, with at most one fsync per dirty session per
// epoch (one syncfs for all of them where the kernel has it). There is no
// commit timer: a positive window only arms the committer, and how many
// appends share an epoch is set by how many arrive while the previous
// flush is in flight. maxBatch caps the tickets one epoch may take; later
// arrivals form the epoch after it (maxBatch <= 0 means uncapped).
// onEpoch, when non-nil, observes every flushed epoch with the number of
// barriers issued and appends released; it runs on the goroutine of the
// append that led the epoch, one call at a time. A non-positive window
// and a second arm are no-ops; the committer stops on Close.
func (f *File) SetGroupCommit(window time.Duration, maxBatch int, onEpoch func(synced, parked int)) {
	if window <= 0 || f.gc.Load() != nil {
		return
	}
	if err := f.checkOpen(); err != nil {
		return
	}
	gc := &groupCommitter{f: f, maxBatch: maxBatch, onEpoch: onEpoch}
	gc.idle.L = &gc.mu
	// Probe syncfs support up front (the probe itself is a harmless
	// barrier). A nil dir just means per-handle fsyncs.
	if d, err := os.Open(f.dir); err == nil {
		if ok, serr := syncFilesystem(d.Fd()); ok && serr == nil {
			gc.dir = d
		} else {
			d.Close()
		}
	}
	if !f.gc.CompareAndSwap(nil, gc) {
		if gc.dir != nil {
			gc.dir.Close()
		}
		return
	}
	// Scrape-time queue depth: appends parked on queued epochs. The newest
	// armed committer owns the series; a stopped committer reads 0.
	obs.RegisterGaugeFunc("gameauthority_group_commit_queue_depth",
		"Appends parked on queued group-commit epochs.",
		func() float64 {
			gc.mu.Lock()
			defer gc.mu.Unlock()
			return float64(gc.queued)
		})
}

// Fsyncs reports the total fsyncs issued against session WAL handles —
// the quantity the group-commit regression gate bounds.
func (f *File) Fsyncs() int64 { return f.fsyncs.Load() }

// CommitEpochs reports how many group-commit epochs have been flushed.
func (f *File) CommitEpochs() int64 { return f.epochs.Load() }

// stopCommitter shuts the committer down: appends from now on fall back
// to the direct-append contract, the flush in flight and every queued
// epoch drain in order (each one's leader is already parked and is handed
// the baton in turn), and only then is the syncfs anchor closed.
// Idempotent.
func (f *File) stopCommitter() {
	gc := f.gc.Swap(nil)
	if gc == nil {
		return
	}
	gc.mu.Lock()
	gc.stopped = true
	for gc.flushing {
		gc.idle.Wait()
	}
	gc.mu.Unlock()
	if gc.dir != nil {
		gc.dir.Close()
	}
}

// syncfs reports whether the committer flushes with one filesystem-wide
// barrier; false for a nil (unarmed or stopped) committer.
func (gc *groupCommitter) syncfs() bool { return gc != nil && gc.dir != nil }

// commit makes the caller's append — already written to wh — durable and
// returns the flush error of the epoch that covered it. It returns nil
// without a barrier once the committer has stopped: the caller falls back
// to the direct-append contract (Close fsyncs everything anyway).
//
// The barrier that covers an append always starts after the append's
// write: a lone leader starts its own, and a ticket is only ever taken on
// a queued epoch, which cannot start flushing before the flush already in
// flight has ended.
func (gc *groupCommitter) commit(wh *walHandle) error {
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		return nil
	}
	if !gc.flushing {
		gc.flushing = true
		gc.mu.Unlock()
		err := gc.flush(wh, nil, 1)
		gc.handoff()
		return err
	}
	e := gc.tail
	leader := e == nil || (gc.maxBatch > 0 && e.tickets >= gc.maxBatch)
	if leader {
		e = gc.enqueue()
	}
	e.tickets++
	gc.queued++
	if e.dirty != nil {
		e.dirty[wh] = struct{}{}
	}
	gc.mu.Unlock()

	if leader {
		// handoff dequeued e before sending: nobody can take a ticket on
		// it any more, so its fields are ours to read.
		<-e.lead
		e.err = gc.flush(nil, e.dirty, e.tickets)
		gc.handoff()
		e.refs.Store(int32(e.tickets))
		e.done.Done()
	} else {
		e.done.Wait()
	}
	err := e.err
	if e.refs.Add(-1) == 0 {
		gc.mu.Lock()
		e.next, gc.free = gc.free, e
		gc.mu.Unlock()
	}
	return err
}

// enqueue appends an empty epoch — recycled when one is free — to the
// queue. The caller holds gc.mu.
func (gc *groupCommitter) enqueue() *commitEpoch {
	e := gc.free
	if e != nil {
		gc.free = e.next
		e.tickets, e.err, e.next = 0, nil, nil
		clear(e.dirty)
	} else {
		e = &commitEpoch{lead: make(chan struct{}, 1)}
		if gc.dir == nil {
			e.dirty = make(map[*walHandle]struct{})
		}
	}
	e.done.Add(1)
	if gc.tail != nil {
		gc.tail.next = e
	} else {
		gc.head = e
	}
	gc.tail = e
	return e
}

// handoff ends the caller's turn with the baton: the leader of the oldest
// queued epoch gets it, or nobody does.
func (gc *groupCommitter) handoff() {
	gc.mu.Lock()
	e := gc.head
	if e == nil {
		gc.flushing = false
		gc.idle.Broadcast()
		gc.mu.Unlock()
		return
	}
	if gc.head = e.next; gc.head == nil {
		gc.tail = nil
	}
	e.next = nil
	gc.queued -= e.tickets
	gc.mu.Unlock()
	e.lead <- struct{}{}
}

// flushFanout bounds how many dirty handles an epoch fsyncs concurrently.
// The fsyncs target distinct files, so they are independent I/O waits:
// overlapping them keeps the epoch's wall time near one device round trip
// instead of one per dirty session.
const flushFanout = 64

// flush issues one epoch's barrier — syncfs, or an fsync of lone (a lone
// leader's handle) or of every handle in dirty — and accounts for it. The
// caller holds the baton.
func (gc *groupCommitter) flush(lone *walHandle, dirty map[*walHandle]struct{}, tickets int) error {
	t0 := time.Now()
	span := obs.DefaultTracer.Begin("commit.epoch", "store", 0, int64(tickets))
	var (
		synced int
		err    error
	)
	switch {
	case gc.dir != nil:
		// One syncfs barrier commits every dirty WAL in the epoch with a
		// single filesystem journal commit — the flat-cost flush that
		// makes the epoch price independent of how many sessions share
		// it. It also covers page-cache data of handles the cache evicted
		// (a closed fd's dirty pages still belong to the filesystem),
		// which is why closeHandle skips its fsync in this mode.
		ts := time.Now()
		ok, serr := syncFilesystem(gc.dir.Fd())
		fsyncLatency.Record(time.Since(ts))
		gc.f.fsyncs.Add(1)
		if !ok {
			// The arm-time probe succeeded, so this cannot happen; and the
			// mode is pinned, so it is an error, not a fallback.
			serr = errors.ErrUnsupported
		}
		synced, err = 1, serr
	case lone != nil:
		synced, err = gc.syncHandle(lone)
	default:
		synced, err = gc.syncHandles(dirty)
	}
	gc.f.epochs.Add(1)
	if gc.onEpoch != nil {
		gc.onEpoch(synced, tickets)
	}
	span.End()
	commitEpochLatency.Record(time.Since(t0))
	return err
}

// syncHandle fsyncs one handle. A handle already closed by eviction or
// invalidation is skipped: its close fsynced everything it held.
func (gc *groupCommitter) syncHandle(wh *walHandle) (synced int, err error) {
	wh.mu.Lock()
	defer wh.mu.Unlock()
	if wh.f == nil {
		return 0, nil
	}
	ts := time.Now()
	err = wh.f.Sync()
	fsyncLatency.Record(time.Since(ts))
	gc.f.fsyncs.Add(1)
	return 1, err
}

// syncHandles fsyncs every handle of an epoch, flushFanout at a time, and
// returns how many it reached and the first failure. Every appender with
// a ticket on the epoch is parked, so holding the handles' locks across
// the concurrent fsyncs cannot deadlock.
func (gc *groupCommitter) syncHandles(dirty map[*walHandle]struct{}) (synced int, first error) {
	if len(dirty) == 1 {
		for wh := range dirty {
			return gc.syncHandle(wh)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, flushFanout)
	for wh := range dirty {
		wg.Add(1)
		sem <- struct{}{}
		go func(wh *walHandle) {
			defer wg.Done()
			n, err := gc.syncHandle(wh)
			<-sem
			mu.Lock()
			synced += n
			if err != nil && first == nil {
				first = err
			}
			mu.Unlock()
		}(wh)
	}
	wg.Wait()
	return synced, first
}

// --- File helpers --------------------------------------------------------------

// atomicWrite writes data to path via a temp file + fsync + rename +
// directory fsync, so readers never observe a torn file and the new
// directory entry survives an OS crash (the contract Sync documents).
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and creates within it are on
// stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

// repairWAL truncates a torn tail — the half-written final line(s) of a
// crash — so appends resume on a clean line boundary. A final record that
// is CRC-valid but lost only its newline is completed in place rather
// than dropped (it was acknowledged, and the reader already accepts it).
// A file the reader refuses (mid-file corruption, no spec line) is
// refused here too, instead of burying the evidence under fresh appends.
// The caller holds the session's stripe lock.
func repairWAL(id, path string) error {
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer file.Close()
	data, err := io.ReadAll(file)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, end, err := parseSession(id, data)
	switch {
	case err != nil:
		return err
	case end == len(data):
		// The crash clipped only the trailing newline; the record itself
		// is intact. Complete the line (pwrite at EOF).
		_, err = file.WriteAt([]byte("\n"), int64(end))
	case end+1 < len(data):
		err = file.Truncate(int64(end + 1))
	default:
		return nil
	}
	if err == nil {
		err = file.Sync()
	}
	if err != nil {
		return fmt.Errorf("store: repair %s: %w", path, err)
	}
	return nil
}

// parseSession turns a session file's bytes into its state: the spec
// line, the snapshot line when present, and the records after them. A
// torn or corrupt tail — the half-written line of a crash — is dropped.
// A corrupt line before a valid one, a file that does not open with a
// valid spec line, and a head line out of place are refused: acknowledged
// plays are never silently lost. end is the offset just past the last
// valid line, before its newline.
func parseSession(id string, data []byte) (st SessionState, end int, err error) {
	st.ID = id
	bad := 0
	for off, i := 0, 0; off < len(data) || i == 0; i++ {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			n = len(data) - off
		}
		l, ok := parseLine(data[off : off+n])
		switch {
		case i == 0 && (!ok || l.Type != lineSpec):
			return st, 0, errNoSpec(id)
		case !ok:
			bad++
		case bad > 0:
			return st, 0, fmt.Errorf("store: %q: %d corrupt line(s) before a valid one", id, bad)
		case i == 0:
			st.Spec = l.Spec
		case i == 1 && l.Type == lineSnap:
			st.SnapshotRounds, st.Snapshot = l.Rounds, l.Payload
		case l.Type == lineSpec || l.Type == lineSnap:
			return st, 0, fmt.Errorf("store: %q: %s line out of place", id, l.Type)
		default:
			st.Tail = append(st.Tail, l.Record)
		}
		if ok {
			end = off + n
		}
		off += n + 1
	}
	finishState(&st)
	return st, end, nil
}

// errNoSpec refuses a session file whose first line is not a valid spec.
func errNoSpec(id string) error {
	return fmt.Errorf("store: %q: the session file does not open with a spec line", id)
}

// appendLine appends the canonical "<crc32c-hex> <json>\n" encoding of v
// (a Record or a fileLine) to buf — the one encoder matching parseLine.
func appendLine(buf []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("store: %w", err)
	}
	return fmt.Appendf(buf, "%08x %s\n", crc32.Checksum(payload, crcTable), payload), nil
}

// parseLine decodes one "<crc32c-hex> <json>" line; ok is false for a
// line whose checksum, JSON or type is not one appendLine writes.
func parseLine(line []byte) (l fileLine, ok bool) {
	var sum [4]byte
	if len(line) < 10 || line[8] != ' ' {
		return l, false
	}
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return l, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(sum[:]) {
		return l, false
	}
	if err := json.Unmarshal(payload, &l); err != nil {
		return l, false
	}
	switch l.Type {
	case RecordPlay, RecordBatch, RecordClose, lineSpec, lineSnap:
		return l, true
	}
	return l, false
}
