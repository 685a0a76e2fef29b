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

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// File is the file-backed Store. It holds no session file open between
// calls: an append opens its session's file with O_APPEND, writes one
// line and closes the file once the line is durable by the store's rules
// (see appendRecord). Sessions stripe onto fileStripes locks, so distinct
// sessions rarely serialize.
type File struct {
	dir string // the sessions directory

	// anchor is the open sessions directory, the syncfs(2) anchor: when
	// non-nil, Sync, Close and every commit epoch flush with one
	// filesystem-wide barrier instead of one fsync per session file.
	// NewFile probes it once and Close closes it after the committer has
	// drained, so the flush mode is fixed for the store's lifetime.
	anchor *os.File

	stripes [fileStripes]sync.Mutex

	mu       sync.Mutex          // guards repaired, unsynced, closed
	repaired map[string]struct{} // ids whose WAL tail was checked this process
	// unsynced holds the sessions appended to with no committer armed
	// since the last Sync, which Sync fsyncs one by one where there is no
	// anchor. Unused under syncfs.
	unsynced map[string]struct{}
	closed   bool

	// gc is the optional group committer (see SetGroupCommit); nil means
	// appends return as soon as the line is written (process-kill durable,
	// OS-crash durable only after Sync or Close).
	gc atomic.Pointer[groupCommitter]

	// fsyncs counts every barrier issued against session files: each
	// fsync or syncfs of a commit epoch, Sync and Close. The group-commit
	// regression gate reads it through Fsyncs.
	fsyncs atomic.Int64
	epochs atomic.Int64
}

var _ Store = (*File)(nil)

// NewFile opens (creating if needed) a file store rooted at dir. One
// store owns its directory: no other process or store may write there
// while it is open. A sessions directory holding .spec or .snap files was
// written in the retired three-file layout and is refused with
// ErrLegacyLayout. Temp files of a create or compaction that was killed
// before its rename are deleted: the rename is the commit point, so they
// were never acknowledged.
func NewFile(dir string) (*File, error) {
	sessions := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessions, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(sessions)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var temps []string
	for _, e := range entries {
		name := e.Name()
		switch ext := filepath.Ext(name); {
		case ext == ".spec" || ext == ".snap":
			return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, filepath.Join(sessions, name))
		case ext != ".wal" && strings.Contains(name, ".wal.tmp"):
			temps = append(temps, filepath.Join(sessions, name))
		}
	}
	for _, name := range temps {
		if err := os.Remove(name); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f := &File{
		dir:      sessions,
		repaired: make(map[string]struct{}),
		unsynced: make(map[string]struct{}),
	}
	// Probe syncfs once (the probe itself is a harmless barrier). A nil
	// anchor means one fsync per session file.
	if d, err := os.Open(sessions); err == nil {
		if ok, serr := syncFilesystem(d.Fd()); ok && serr == nil {
			f.anchor = d
		} else {
			d.Close()
		}
	}
	return f, nil
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

// path is the session's file: one concatenation, which equals
// filepath.Join(f.dir, id+ext) because f.dir is clean and validID admits
// no separator and no dot-only id.
func (f *File) path(id, ext string) string {
	return f.dir + string(filepath.Separator) + id + ext
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
	f.repaired[id] = struct{}{} // a brand-new file needs no tail repair
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

// appendRecord is Append between its span's two ends. The appender holds
// its file until the line is covered: at once without a committer (Sync
// and Close reach the line through the anchor or the unsynced set), or
// until its commit epoch has flushed, so nothing can close a file an
// epoch is about to fsync.
func (f *File) appendRecord(id string, rec Record) error {
	e := lineEncoders.Get().(*lineEncoder)
	e.rec = rec // encoded through a pointer to the pooled copy: nothing is boxed
	line, err := e.encode(&e.rec)
	gc := f.gc.Load()
	var w *os.File
	if err == nil {
		w, err = f.writeLine(id, line, gc == nil)
	}
	e.release()
	if err != nil {
		return err
	}
	// Commit outside the stripe lock: other sessions on the stripe (and
	// later appends to this one — ordering is the caller's journal mutex)
	// must not serialize behind a flush.
	if gc != nil {
		if err = gc.commit(w); err != nil {
			err = fmt.Errorf("store: commit %q: %w", id, err)
		}
	}
	if cerr := w.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("store: append %q: %w", id, cerr)
	}
	return err
}

// writeLine appends one encoded line to the session's file under its
// stripe lock and returns the file, still open. A direct write (no
// committer) joins the unsynced set before the stripe lock is released,
// so a Close that has taken every stripe lock finds it there.
func (f *File) writeLine(id string, line []byte, direct bool) (*os.File, error) {
	mu := f.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	f.mu.Lock()
	closed := f.closed
	_, checked := f.repaired[id]
	f.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	path := f.path(id, ".wal")
	// A crash may have left a half-written final line. O_APPEND would glue
	// the next record onto that fragment — corrupting an acknowledged write
	// and, once valid records follow it, turning a tolerable torn tail into
	// the mid-file corruption the reader refuses. Truncate to the last
	// clean line boundary before any append can land. Once per session per
	// process: everything this process wrote is clean.
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
	if _, err := w.Write(line); err != nil {
		// The line may be partially on disk (short write on a full disk):
		// clear the repair latch so the next append re-runs repairWAL and
		// resumes on a clean boundary, instead of gluing onto the fragment
		// and escalating the torn line into permanent mid-file corruption.
		w.Close()
		f.mu.Lock()
		delete(f.repaired, id)
		f.mu.Unlock()
		return nil, fmt.Errorf("store: append %q: %w", id, err)
	}
	if direct && f.anchor == nil {
		f.mu.Lock()
		f.unsynced[id] = struct{}{}
		f.mu.Unlock()
	}
	return w, nil
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
	return atomicWrite(path, data)
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
	f.mu.Lock()
	delete(f.repaired, id)
	delete(f.unsynced, id)
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

// Sync implements Store: everything written before the call reaches
// stable storage (create and compaction sync through atomicWrite).
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.syncLocked()
}

// Close implements Store: stop the group committer (every queued commit
// epoch drains first, so no parked append leaks), refuse further writes,
// wait out the writes already past that check, sync, and close the
// anchor. Idempotent.
func (f *File) Close() error {
	f.stopCommitter()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	// A write holds its stripe lock from the closed check to the end of
	// its line, so once every stripe lock has been taken no write is in
	// flight, and the sync below reaches every line that landed.
	for i := range f.stripes {
		f.stripes[i].Lock()
		f.stripes[i].Unlock()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.syncLocked()
	if f.anchor != nil {
		f.anchor.Close()
	}
	return err
}

// syncLocked issues Sync's barrier: one syncfs through the anchor, or an
// fsync of every session file in the unsynced set (a file deleted since
// has nothing left to sync). Appends a committer covered need neither.
// The caller holds f.mu.
func (f *File) syncLocked() error {
	if f.anchor != nil {
		_, err := syncFilesystem(f.anchor.Fd())
		f.fsyncs.Add(1)
		if err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
		return nil
	}
	var first error
	for id := range f.unsynced {
		if err := syncPath(f.path(id, ".wal")); err != nil && first == nil {
			first = fmt.Errorf("store: sync %q: %w", id, err)
		}
		f.fsyncs.Add(1)
	}
	clear(f.unsynced)
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
	// dirty holds the files its parked appenders wrote, one per ticket, to
	// fsync; empty under syncfs, where one barrier covers every file. Each
	// appender keeps its file open until the epoch has flushed.
	dirty []*os.File
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
// that another append led, with one fsync per append on the epoch (one
// syncfs for all of them where the kernel has it). There is no
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
	if !f.gc.CompareAndSwap(nil, gc) {
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

// Fsyncs reports the total barriers issued against session files — the
// quantity the group-commit regression gate bounds.
func (f *File) Fsyncs() int64 { return f.fsyncs.Load() }

// CommitEpochs reports how many group-commit epochs have been flushed.
func (f *File) CommitEpochs() int64 { return f.epochs.Load() }

// stopCommitter shuts the committer down: appends from now on fall back
// to the direct-append contract, and the flush in flight and every queued
// epoch drain in order (each one's leader is already parked and is handed
// the baton in turn). Close closes the syncfs anchor only after this.
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
}

// commit makes the caller's append — already written to w, which the
// caller keeps open until commit returns — durable and returns the flush
// error of the epoch that covered it. Once the committer has stopped no
// epoch will: under syncfs the write is covered by Close's barrier (Close
// takes every stripe lock first, and the write ended under one), and per
// file the caller's own fsync covers it here.
//
// The barrier that covers an append always starts after the append's
// write: a lone leader starts its own, and a ticket is only ever taken on
// a queued epoch, which cannot start flushing before the flush already in
// flight has ended.
func (gc *groupCommitter) commit(w *os.File) error {
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		if gc.f.anchor != nil {
			return nil
		}
		return gc.fsync(w)
	}
	if !gc.flushing {
		gc.flushing = true
		gc.mu.Unlock()
		err := gc.flush(w, nil, 1)
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
	if gc.f.anchor == nil {
		e.dirty = append(e.dirty, w)
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
		clear(e.dirty)
		e.tickets, e.err, e.next, e.dirty = 0, nil, nil, e.dirty[:0]
	} else {
		e = &commitEpoch{lead: make(chan struct{}, 1)}
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

// flushFanout bounds how many files an epoch fsyncs concurrently. The
// fsyncs are independent I/O waits, so overlapping them keeps the epoch's
// wall time near one device round trip instead of one per append.
const flushFanout = 64

// flush issues one epoch's barrier — syncfs, or an fsync of lone (a lone
// leader's file) or of every file in dirty — and accounts for it. The
// caller holds the baton.
func (gc *groupCommitter) flush(lone *os.File, dirty []*os.File, tickets int) error {
	t0 := time.Now()
	span := obs.DefaultTracer.Begin("commit.epoch", "store", 0, int64(tickets))
	var (
		synced int
		err    error
	)
	switch {
	case gc.f.anchor != nil:
		// One syncfs barrier commits every file written in the epoch with
		// a single filesystem journal commit — the flat-cost flush that
		// makes the epoch price independent of how many sessions share it.
		ts := time.Now()
		ok, serr := syncFilesystem(gc.f.anchor.Fd())
		fsyncLatency.Record(time.Since(ts))
		gc.f.fsyncs.Add(1)
		if !ok {
			// NewFile's probe succeeded, so this cannot happen; and the
			// mode is fixed, so it is an error, not a fallback.
			serr = errors.ErrUnsupported
		}
		synced, err = 1, serr
	case lone != nil:
		synced, err = 1, gc.fsync(lone)
	default:
		synced, err = len(dirty), gc.fsyncAll(dirty)
	}
	gc.f.epochs.Add(1)
	if gc.onEpoch != nil {
		gc.onEpoch(synced, tickets)
	}
	span.End()
	commitEpochLatency.Record(time.Since(t0))
	return err
}

// fsync fsyncs one appender's file, which its appender holds open.
func (gc *groupCommitter) fsync(w *os.File) error {
	ts := time.Now()
	err := w.Sync()
	fsyncLatency.Record(time.Since(ts))
	gc.f.fsyncs.Add(1)
	return err
}

// fsyncAll fsyncs every file of an epoch, flushFanout at a time, and
// returns the first failure.
func (gc *groupCommitter) fsyncAll(dirty []*os.File) (first error) {
	if len(dirty) == 1 {
		return gc.fsync(dirty[0])
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, flushFanout)
	for _, w := range dirty {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			err := gc.fsync(w)
			<-sem
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
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
	if err := syncPath(dir); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

// syncPath opens path and fsyncs it; a path that no longer exists has
// nothing to sync.
func syncPath(path string) error {
	d, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
// (a Record or a fileLine, or a pointer to one) to buf.
func appendLine(buf []byte, v any) ([]byte, error) {
	e := lineEncoders.Get().(*lineEncoder)
	line, err := e.encode(v)
	buf = append(buf, line...)
	e.release()
	return buf, err
}

// lineEncoder is the scratch of one line encoding, the one encoder
// matching parseLine. Append encodes its record in place and writes the
// line straight from buf; appendLine copies the line out.
type lineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder // writes to buf
	rec Record        // Append's record
}

var lineEncoders = sync.Pool{New: func() any {
	e := new(lineEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledLine bounds the scratch that goes back to the pool. The
// lines of the benchmark's durable workloads are at most 1,441 B (a
// 16-play batch), but a request at the host's 100,000-round cap writes
// one of ≈ 9 MB, and a pooled buffer outlives the next collection: such
// a line's scratch is left to the collector instead.
const maxPooledLine = 64 << 10

// encode writes v's line into the scratch and returns it, valid until
// release. The encoder emits json.Marshal's bytes, HTML escaping included,
// plus the newline; the JSON's checksum then fills the hex digits reserved
// in front of it.
func (e *lineEncoder) encode(v any) ([]byte, error) {
	e.buf.Reset()
	e.buf.WriteString("00000000 ")
	if err := e.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	line := e.buf.Bytes()
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(line[9:len(line)-1], crcTable))
	hex.Encode(line[:8], sum[:])
	return line, nil
}

// release drops the scratch's reference to the record and returns it to
// the pool.
func (e *lineEncoder) release() {
	e.rec = Record{}
	if e.buf.Cap() <= maxPooledLine {
		lineEncoders.Put(e)
	}
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
