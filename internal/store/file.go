package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// File layout: one file per session, <dir>/sessions/<id>.wal, of binary
// frames: magic, spec, the latest snapshot once compacted, the records
// in round order. A frame is a uvarint body length, a type, the CRC-32C
// of type and body, and the body, which opens with a varint round. Create
// and compaction each write the whole file through one atomicWrite,
// delete is one unlink and load one read, so a crash leaves the old file
// or the new one, never a session in pieces; DESIGN.md §9 has the rest.

// Frame types: the file's own head frames, then the record types.
const (
	frameMagic byte = iota + 1
	frameSpec
	frameSnap
	framePlay
	frameBatch
	frameClose
)

// magic opens every session file: format version 1.
var magic = appendFrame(nil, frameMagic, 1, []byte("gameauthority"), nil)

// fileStripes is the per-session lock striping width (power of two).
const fileStripes = 64

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcSlices are checksum's tables: crcSlices[k][b] is the CRC-32C register
// after byte b and k zero bytes, crcSlices[0] being crcTable.
var crcSlices = func() (t [8][256]uint32) {
	t[0] = *crcTable
	for k := 1; k < 8; k++ {
		for i, c := range t[k-1] {
			t[k][i] = t[0][byte(c)] ^ c>>8
		}
	}
	return t
}()

// File is the file-backed Store. It holds no session file open between
// calls: an append opens its session's file with O_APPEND, writes one
// frame and closes the file once it is durable by the store's rules
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
	// appends return as soon as the frame is written (process-kill durable,
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
// its magic and spec frames, through one atomicWrite.
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
	if err := atomicWrite(path, appendFrame(slices.Clip(magic), frameSpec, 0, spec, nil)); err != nil {
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
	err := f.appendRecord(id, &rec)
	span.End()
	walAppendLatency.Record(time.Since(t0))
	return err
}

// appendRecord is Append between its span's two ends. It encodes on the
// stack (a 16-play frame is 569 B) and holds its file until the frame is
// covered: at once without a committer (Sync and Close reach it through
// the anchor or the unsynced set), or until its commit epoch has flushed,
// so nothing can close a file an epoch is about to fsync.
func (f *File) appendRecord(id string, rec *Record) error {
	if err := checkRecord(rec); err != nil {
		return err
	}
	var scratch [1024]byte
	gc := f.gc.Load()
	w, err := f.writeFrame(id, appendRecordFrame(scratch[:0], rec), gc == nil)
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

// writeFrame appends one encoded frame to the session's file under its
// stripe lock and returns the file, still open. A direct write (no
// committer) joins the unsynced set before the stripe lock is released,
// so a Close that has taken every stripe lock finds it there.
func (f *File) writeFrame(id string, frame []byte, direct bool) (*os.File, error) {
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
	// A crash may have left a half-written final frame. O_APPEND would glue
	// the next record onto that fragment — corrupting an acknowledged write
	// and, once valid records follow it, turning a tolerable torn tail into
	// the mid-file corruption the reader refuses. Truncate to the end of
	// the last valid frame before any append can land. Once per session per
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
	if _, err := w.Write(frame); err != nil {
		// The frame may be partially on disk (short write on a full disk):
		// clear the repair latch so the next append re-runs repairWAL and
		// resumes on a clean boundary, instead of gluing onto the fragment
		// and escalating the torn frame into permanent mid-file corruption.
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

// compact returns data compacted at the rounds watermark: its head, the
// new snapshot and the records it does not cover, copied byte for byte.
// Round order makes the frames it drops a prefix; a header walk finds
// the newest, the reader's rules hold from it on (if it is torn, the walk
// looks before it), and nothing before it is read.
func compact(id string, data []byte, rounds int, payload []byte) ([]byte, error) {
	spec, err := head(id, data)
	if err != nil {
		return nil, err
	}
	var fr frame
	from, keep, end, ok := -1, spec.end, spec.end, false // [keep, end) is kept
	for limit := len(data); from < 0 || end == from && from > spec.end; limit = from {
		from, keep = spec.end, spec.end
		for off := spec.end; off < limit; off = fr.end {
			if fr, ok = readFrame(data, off, false); !ok {
				break
			}
			if fr.typ == frameSnap || fr.typ != frameClose && fr.round < rounds {
				from, keep = off, fr.end
			}
		}
		for end = from; end < len(data); end = fr.end {
			if fr, ok, err = next(id, data, end); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	buf := appendFrame(slices.Clip(data[:spec.end]), frameSnap, rounds, payload, nil)
	if end > keep {
		buf = append(buf, data[keep:end]...)
	}
	return buf, nil
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
	// its frame, so once every stripe lock has been taken no write is in
	// flight, and the sync below reaches every frame that landed.
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

// repairWAL truncates a torn tail — the half-written final frame of a
// crash — so appends resume on a frame boundary. A file the reader
// refuses is refused here too, instead of burying the evidence under
// fresh appends. The caller holds the session's stripe lock.
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
	if err != nil || end == len(data) {
		return err
	}
	if err = file.Truncate(int64(end)); err == nil {
		err = file.Sync()
	}
	if err != nil {
		return fmt.Errorf("store: repair %s: %w", path, err)
	}
	return nil
}

// parseSession turns a session file's bytes into its state. A torn tail
// is dropped; a corrupt frame before a valid one, a missing magic or
// spec, and a frame out of place or undecodable are refused, so no
// acknowledged play is silently lost. end is just past the last frame.
func parseSession(id string, data []byte) (st SessionState, end int, err error) {
	fr, err := head(id, data)
	if err != nil {
		return st, 0, err
	}
	st.ID, st.Spec, end = id, fr.rest, fr.end
	for first, ok := end, false; end < len(data); end = fr.end {
		if fr, ok, err = next(id, data, end); !ok {
			break
		}
		rec, ok := decodeRecord(&fr)
		switch {
		case fr.typ == frameSnap && end == first:
			st.SnapshotRounds, st.Snapshot = fr.round, fr.rest
		case !ok:
			return st, 0, fmt.Errorf("store: %q: frame at offset %d is out of place or does not decode", id, end)
		default:
			st.Tail = append(st.Tail, rec)
		}
	}
	finishState(&st)
	return st, end, err
}

// head checks the magic and the spec frame that open every session file.
func head(id string, data []byte) (frame, error) {
	if !bytes.HasPrefix(data, magic) {
		return frame{}, fmt.Errorf("%w: %q", ErrLegacyFormat, id)
	}
	fr, ok := readFrame(data, len(magic), true)
	if !ok || fr.typ != frameSpec {
		return fr, fmt.Errorf("store: %q: the session file does not open with a spec frame", id)
	}
	return fr, nil
}

// --- Frames --------------------------------------------------------------------

const maxHeader = binary.MaxVarintLen64 + 5 // body length, type, checksum

// appendFrame appends a frame whose body is round, rest raw and, in a
// play or batch frame, len(plays), then per play round, fouls, convicted
// (varints) and the hash packed into 32 bytes. The header goes in last.
func appendFrame(buf []byte, typ byte, round int, rest []byte, plays []BatchPlay) []byte {
	var room [maxHeader]byte
	start := len(buf)
	buf = append(binary.AppendVarint(append(buf, room[:]...), int64(round)), rest...)
	if typ == framePlay || typ == frameBatch {
		buf = binary.AppendVarint(buf, int64(len(plays)))
	}
	for _, p := range plays {
		buf = binary.AppendVarint(binary.AppendVarint(buf, int64(p.Round)), int64(p.Fouls))
		buf = binary.AppendVarint(buf, int64(len(p.Convicted)))
		for _, c := range p.Convicted {
			buf = binary.AppendVarint(buf, int64(c))
		}
		var digits [hashLen]byte
		copy(digits[:], p.Hash)
		buf, _ = hex.AppendDecode(buf, digits[:])
	}
	body := buf[start+maxHeader:]
	hdr := append(binary.AppendUvarint(make([]byte, 0, maxHeader), uint64(len(body))), typ)
	hdr = binary.LittleEndian.AppendUint32(hdr, checksum(checksum(0, []byte{typ}), body))
	copy(buf[start+len(hdr):], body)
	return append(buf[:start], hdr...)[:start+len(hdr)+len(body)]
}

// appendRecordFrame appends the frame of rec, which passed checkRecord.
func appendRecordFrame(buf []byte, rec *Record) []byte {
	switch rec.Type {
	case RecordClose:
		return appendFrame(buf, frameClose, -1, []byte(rec.Digest), nil)
	case RecordPlay:
		play := BatchPlay{Round: rec.Round, Hash: rec.Hash, Fouls: rec.Fouls, Convicted: rec.Convicted}
		return appendFrame(buf, framePlay, rec.Round, nil, []BatchPlay{play})
	}
	return appendFrame(buf, frameBatch, rec.LastRound(), nil, rec.Plays)
}

// checksum is crc32.Update for appendFrame, whose stack buffer escapes
// through crc32.Update's argument: CRC-32C by slicing-by-8, eight bytes a
// step through crcSlices.
func checksum(crc uint32, p []byte) uint32 {
	t := &crcSlices
	crc = ^crc
	for ; len(p) >= 8; p = p[8:] {
		hi := t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]] // off the crc chain
		crc ^= binary.LittleEndian.Uint32(p)
		crc = hi ^ (t[7][byte(crc)] ^ t[6][byte(crc>>8)]) ^ (t[5][byte(crc>>16)] ^ t[4][crc>>24])
	}
	for _, b := range p {
		crc = t[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// frame is one frame of a session file; its slices alias the file.
type frame struct {
	typ        byte
	round, end int    // the body's leading varint; the offset past the frame
	body, rest []byte // the body, which the checksum covers with typ; past the round
}

// readFrame reads the frame at data[off:]; ok is false for one that runs
// past data, is of no known type or fails its checksum, when verified.
func readFrame(data []byte, off int, verify bool) (fr frame, ok bool) {
	n, w := binary.Uvarint(data[off:])
	at := off + w + 5
	if w <= 0 || at > len(data) || n > uint64(len(data)-at) {
		return fr, false
	}
	fr.typ, fr.end, fr.body = data[off+w], at+int(n), data[at:at+int(n)]
	round, rw := binary.Varint(fr.body)
	fr.round, fr.rest = int(round), fr.body[max(rw, 0):]
	return fr, rw > 0 && fr.typ >= frameMagic && fr.typ <= frameClose &&
		(!verify || crc32.Update(crc32.Update(0, crcTable, data[at-5:at-4]), crcTable, fr.body) == binary.LittleEndian.Uint32(data[at-4:]))
}

// next reads the frame at data[off:] by the reader's rules: a bad frame
// is a torn tail (!ok) unless a valid frame starts at any later offset
// (err). No length field is trusted, so a damaged one is not a torn tail.
func next(id string, data []byte, off int) (fr frame, ok bool, err error) {
	fr, ok = readFrame(data, off, true)
	for i := off + 1; !ok && i < len(data) && err == nil; i++ {
		if _, valid := readFrame(data, i, true); valid {
			err = fmt.Errorf("store: %q: corrupt frame at offset %d before a valid one", id, off)
		}
	}
	return fr, ok, err
}

// decodeRecord decodes a record frame whose round is its last; a frame's
// hashes are one string, each play's Hash a substring of it.
func decodeRecord(fr *frame) (Record, bool) {
	if fr.typ == frameClose {
		return Record{Type: RecordClose, Digest: string(fr.rest)}, fr.round == -1
	}
	b, ok := fr.rest, fr.typ == framePlay || fr.typ == frameBatch
	varint := func() int {
		v, n := binary.Varint(b)
		ok, b = ok && n > 0, b[max(n, 0):]
		return int(v)
	}
	n := varint()
	if !ok || n < 0 || n > len(b)/(3+hashLen/2) || fr.typ == framePlay && n != 1 {
		return Record{}, false
	}
	plays := make([]BatchPlay, n)
	var hashes strings.Builder
	hashes.Grow(n * hashLen)
	for i := range plays {
		p := &plays[i]
		p.Round, p.Fouls = varint(), varint()
		k := varint()
		if !ok || k < 0 || k > len(b) {
			return Record{}, false
		}
		p.Convicted = make([]int, k)
		for j := range p.Convicted {
			p.Convicted[j] = varint()
		}
		var digits [hashLen]byte
		hex.Encode(digits[:], b[:min(len(b), hashLen/2)])
		hashes.Write(digits[:])
		ok, b = ok && len(b) >= hashLen/2, b[min(len(b), hashLen/2):]
	}
	all := hashes.String()
	for i := range plays {
		plays[i].Hash = all[hashLen*i : hashLen*(i+1)]
	}
	rec := Record{Type: RecordBatch, Plays: plays}
	if fr.typ == framePlay {
		p := plays[0]
		rec = Record{Type: RecordPlay, Round: p.Round, Hash: p.Hash, Fouls: p.Fouls, Convicted: p.Convicted}
	}
	return rec, ok && len(b) == 0 && rec.LastRound() == fr.round
}
