package store

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// The committer has no clock, so these tests do not either: where a test
// needs appends parked behind a flush it takes the baton itself, exactly
// as a lone leader does, and hands it on when it has looked.

// epochLog collects onEpoch callbacks.
type epochLog struct {
	mu     sync.Mutex
	synced []int
	parked []int
}

func (l *epochLog) record(synced, parked int) {
	l.mu.Lock()
	l.synced = append(l.synced, synced)
	l.parked = append(l.parked, parked)
	l.mu.Unlock()
}

func (l *epochLog) snapshot() (synced, parked []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.synced...), append([]int(nil), l.parked...)
}

// flushModes runs fn against a committer in each flush mode: syncfs where
// the platform has it, and the per-file fsync fallback everywhere.
func flushModes(t *testing.T, fn func(t *testing.T, perHandle bool)) {
	t.Run("syncfs", func(t *testing.T) { fn(t, false) })
	t.Run("per-handle", func(t *testing.T) { fn(t, true) })
}

// armed opens a store with sessions s0…s<n-1> and a group committer in
// the wanted flush mode: per file is picked by clearing the store's syncfs
// anchor. The window is an hour: anything that waited on it would hang
// the test.
func armed(t *testing.T, sessions, maxBatch int, perHandle bool, onEpoch func(synced, parked int)) (*File, *groupCommitter) {
	t.Helper()
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	f.SetGroupCommit(time.Hour, maxBatch, onEpoch)
	gc := f.gc.Load()
	if gc == nil {
		t.Fatal("SetGroupCommit did not arm a committer")
	}
	switch {
	case perHandle:
		PerFileFlush(f) // before the first append, for every flush to come
	case !HasSyncfs(f):
		t.Skip("no syncfs on this platform")
	}
	for i := 0; i < sessions; i++ {
		if err := f.CreateSession(fmt.Sprintf("s%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	return f, gc
}

// takeBaton marks a flush in flight, as a lone leader's commit does.
func takeBaton(t *testing.T, gc *groupCommitter) {
	t.Helper()
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.flushing {
		t.Fatal("baton already taken")
	}
	gc.flushing = true
}

// waitFor polls cond (under gc.mu) until it holds.
func waitFor(t *testing.T, gc *groupCommitter, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gc.mu.Lock()
		ok := cond()
		gc.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// appendAsync starts one append per id, each only after the one before it
// holds its ticket, so arrival order is the order of ids. Result i is the
// error of ids[i].
func appendAsync(t *testing.T, f *File, gc *groupCommitter, ids ...string) []chan error {
	t.Helper()
	gc.mu.Lock()
	base := gc.queued
	gc.mu.Unlock()
	out := make([]chan error, len(ids))
	for i, id := range ids {
		ch := make(chan error, 1)
		out[i] = ch
		go func() { ch <- f.Append(id, Record{Type: RecordPlay, Round: i, Hash: hashOf(i)}) }()
		waitFor(t, gc, "append to take its ticket", func() bool { return gc.queued == base+i+1 })
	}
	return out
}

func recv(t *testing.T, ch chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("append still parked")
		return nil
	}
}

func stillParked(t *testing.T, chs []chan error) {
	t.Helper()
	for i, ch := range chs {
		select {
		case err := <-ch:
			t.Fatalf("append %d returned (%v) while the flush it arrived during was still in flight", i, err)
		default:
		}
	}
}

func sessionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	return ids
}

// TestGroupCommitEpochs exercises the committer under real concurrency:
// the counters advance, onEpoch's sums equal them, and re-arming is a
// no-op.
func TestGroupCommitEpochs(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var epochs, syncedTotal, parkedTotal int
	var mu sync.Mutex
	f.SetGroupCommit(time.Millisecond, 4, func(synced, parked int) {
		mu.Lock()
		epochs++
		syncedTotal += synced
		parkedTotal += parked
		mu.Unlock()
	})
	gc := f.gc.Load()
	f.SetGroupCommit(time.Hour, 1, nil) // second arm: ignored
	f.SetGroupCommit(0, 0, nil)         // non-positive window: ignored
	if f.gc.Load() != gc || gc.maxBatch != 4 {
		t.Fatal("re-arming replaced the committer")
	}

	const sessions = 3
	for i := 0; i < sessions; i++ {
		if err := f.CreateSession(fmt.Sprintf("s%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				if err := f.Append(id, Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("s%d", i))
	}
	wg.Wait()

	if got := f.CommitEpochs(); got == 0 || got > sessions*8 {
		t.Fatalf("commit epochs %d outside (0, %d appends]", got, sessions*8)
	}
	if got := f.Fsyncs(); got == 0 || got > f.CommitEpochs()*sessions {
		t.Fatalf("fsyncs %d outside (0, epochs*%d]", got, sessions)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(epochs) != f.CommitEpochs() {
		t.Fatalf("onEpoch saw %d epochs, store counted %d", epochs, f.CommitEpochs())
	}
	if parkedTotal != sessions*8 {
		t.Fatalf("onEpoch released %d appends, want %d", parkedTotal, sessions*8)
	}
	if int64(syncedTotal) != f.Fsyncs() {
		t.Fatalf("onEpoch synced %d barriers, store counted %d fsyncs", syncedTotal, f.Fsyncs())
	}
}

// TestGroupCommitLoneLeader: an append that finds no flush in flight
// leads its own epoch at once — one epoch, one ticket, one barrier per
// append, nothing queued behind it — and the path allocates nothing.
func TestGroupCommitLoneLeader(t *testing.T) {
	flushModes(t, func(t *testing.T, perHandle bool) {
		var log epochLog
		f, gc := armed(t, 1, 0, perHandle, log.record)
		const appends = 50
		for r := 0; r < appends; r++ {
			if err := f.Append("s0", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
				t.Fatal(err)
			}
			if got := f.CommitEpochs(); got != int64(r+1) {
				t.Fatalf("after %d lone appends: %d epochs", r+1, got)
			}
		}
		synced, parked := log.snapshot()
		if len(parked) != appends {
			t.Fatalf("%d epochs for %d lone appends", len(parked), appends)
		}
		for i := range parked {
			if parked[i] != 1 || synced[i] != 1 {
				t.Fatalf("epoch %d: synced %d parked %d, want 1 and 1", i, synced[i], parked[i])
			}
		}
		if got := f.Fsyncs(); got != appends {
			t.Fatalf("%d fsyncs for %d lone appends", got, appends)
		}
		gc.mu.Lock()
		idle := !gc.flushing && gc.head == nil && gc.tail == nil && gc.queued == 0 && gc.free == nil
		gc.mu.Unlock()
		if !idle {
			t.Fatal("lone appends left the committer busy, or built an epoch they did not need")
		}

		w := openWAL(t, f, "s0")
		if allocs := testing.AllocsPerRun(100, func() {
			if err := gc.commit(w); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("lone-leader commit allocates %v times", allocs)
		}
	})
}

// TestGroupCommitFollowersShareEpoch: appends that arrive while a flush is
// in flight are not released by it. They form the next epoch — one epoch
// of K tickets, led by one of them — and its flush error reaches all K;
// the epoch after that starts clean, and reuses the first one's
// bookkeeping.
func TestGroupCommitFollowersShareEpoch(t *testing.T) {
	flushModes(t, func(t *testing.T, perHandle bool) {
		const k = 5
		var log epochLog
		f, gc := armed(t, k, 0, perHandle, log.record)
		ids := sessionIDs(k)

		takeBaton(t, gc)
		parked := appendAsync(t, f, gc, ids...)
		stillParked(t, parked)
		if got := f.CommitEpochs(); got != 0 {
			t.Fatalf("%d epochs flushed while the baton was held", got)
		}
		// Break the barrier: a closed descriptor under the syncfs anchor,
		// or in place of one parked appender's file.
		closed, err := os.Open(f.dir)
		if err != nil {
			t.Fatal(err)
		}
		closed.Close()
		restore := func() {}
		gc.mu.Lock()
		e := gc.head
		shape := e != nil && e == gc.tail && e.tickets == k && (!perHandle || len(e.dirty) == k)
		if shape && perHandle {
			e.dirty[2] = closed
		}
		gc.mu.Unlock()
		if !shape {
			t.Fatalf("want one queued epoch of %d tickets, got %+v", k, e)
		}
		if !perHandle {
			good := f.anchor
			f.anchor = closed
			restore = func() { f.anchor = good }
		}

		gc.handoff()
		for i, ch := range parked {
			err := recv(t, ch)
			if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("store: commit %q: ", ids[i])) {
				t.Fatalf("append %d: error %v, want the epoch's flush error", i, err)
			}
		}
		synced, tickets := log.snapshot()
		if len(tickets) != 1 || tickets[0] != k {
			t.Fatalf("epochs %v, want one of %d tickets", tickets, k)
		}
		want := 1 // one syncfs
		if perHandle {
			want = k // one fsync per parked appender's file
		}
		if synced[0] != want {
			t.Fatalf("epoch issued %d barriers, want %d", synced[0], want)
		}
		waitFor(t, gc, "the baton to come back", func() bool { return !gc.flushing })
		waitFor(t, gc, "the epoch to be recycled", func() bool { return gc.free == e })

		// The next epoch starts clean, and on the recycled bookkeeping.
		restore()
		takeBaton(t, gc)
		parked = appendAsync(t, f, gc, ids[:2]...)
		gc.mu.Lock()
		reused := gc.head == e && gc.free == nil && e.tickets == 2 && e.err == nil && (!perHandle || len(e.dirty) == 2)
		gc.mu.Unlock()
		if !reused {
			t.Fatalf("second epoch did not reuse the first one's bookkeeping cleanly: %+v", e)
		}
		gc.handoff()
		for i, ch := range parked {
			if err := recv(t, ch); err != nil {
				t.Fatalf("append %d after the failed epoch: %v", i, err)
			}
		}
		if got := f.CommitEpochs(); got != 2 {
			t.Fatalf("%d epochs, want 2", got)
		}
	})
}

// TestGroupCommitMaxBatchSplits: maxBatch caps an epoch's tickets. K
// arrivals behind one flush split into ⌈K/maxBatch⌉ epochs in arrival
// order, flushed oldest first.
func TestGroupCommitMaxBatchSplits(t *testing.T) {
	flushModes(t, func(t *testing.T, perHandle bool) {
		const (
			k        = 8
			maxBatch = 3
		)
		var gc *groupCommitter
		var log epochLog
		var left []int // tickets still queued while each epoch flushed
		f, gc := armed(t, k, maxBatch, perHandle, func(synced, parked int) {
			log.record(synced, parked)
			gc.mu.Lock()
			left = append(left, gc.queued)
			gc.mu.Unlock()
		})
		ids := sessionIDs(k)

		takeBaton(t, gc)
		parked := appendAsync(t, f, gc, ids...)
		stillParked(t, parked)
		gc.mu.Lock()
		var sizes []int
		arrival := 0
		for e := gc.head; e != nil; e = e.next {
			sizes = append(sizes, e.tickets)
			for i := 0; perHandle && i < e.tickets; i++ {
				if i >= len(e.dirty) || e.dirty[i].Name() != f.path(ids[arrival+i], ".wal") {
					t.Errorf("epoch %d does not hold arrival %d's file", len(sizes)-1, arrival+i)
				}
			}
			arrival += e.tickets
		}
		gc.mu.Unlock()
		if fmt.Sprint(sizes) != "[3 3 2]" {
			t.Fatalf("queued epochs %v, want [3 3 2]", sizes)
		}

		gc.handoff()
		for i, ch := range parked {
			if err := recv(t, ch); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		waitFor(t, gc, "the baton to come back", func() bool { return !gc.flushing })
		if _, tickets := log.snapshot(); fmt.Sprint(tickets) != "[3 3 2]" || fmt.Sprint(left) != "[5 2 0]" {
			t.Fatalf("flushed epochs of %v tickets with %v left queued, want [3 3 2] and [5 2 0]", tickets, left)
		}
	})
}

// TestGroupCommitCloseReleasesParked closes the store while one flush is
// in flight and two epochs are queued behind it. Close waits; appends
// from then on take the direct path; every queued epoch still drains with
// a working barrier — the syncfs anchor outlives the last flush — and no
// append hangs.
func TestGroupCommitCloseReleasesParked(t *testing.T) {
	flushModes(t, func(t *testing.T, perHandle bool) {
		var log epochLog
		f, gc := armed(t, 1, 2, perHandle, log.record)
		takeBaton(t, gc)
		parked := appendAsync(t, f, gc, "s0", "s0", "s0", "s0")

		closed := make(chan error, 1)
		go func() { closed <- f.Close() }()
		waitFor(t, gc, "Close to stop the committer", func() bool { return gc.stopped })
		stillParked(t, parked)
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) with a flush in flight and epochs queued", err)
		default:
		}
		// A stopped committer takes no more tickets.
		if err := gc.commit(openWAL(t, f, "s0")); err != nil {
			t.Fatal(err)
		}
		if f.gc.Load() != nil || f.CommitEpochs() != 0 {
			t.Fatal("stopped committer still armed, or flushed out of turn")
		}

		gc.handoff()
		for i, ch := range parked {
			if err := recv(t, ch); err != nil {
				t.Fatalf("parked append %d errored on close: %v", i, err)
			}
		}
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close still waiting after the queue drained")
		}
		if _, tickets := log.snapshot(); fmt.Sprint(tickets) != "[2 2]" {
			t.Fatalf("drained epochs %v, want [2 2]", tickets)
		}
		if err := f.Append("s0", Record{Type: RecordPlay, Round: 9, Hash: hashOf(9)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after Close: %v, want ErrClosed", err)
		}
	})
}

// TestGroupCommitStoppedFallsBack: after the committer stops, appends keep
// the direct-append contract — written, acknowledged, no epoch.
func TestGroupCommitStoppedFallsBack(t *testing.T) {
	f, _ := armed(t, 1, 0, true, nil)
	if err := f.Append("s0", Record{Type: RecordPlay, Round: 0, Hash: hashOf(0)}); err != nil {
		t.Fatal(err)
	}
	f.stopCommitter()
	f.stopCommitter() // idempotent
	if err := f.Append("s0", Record{Type: RecordPlay, Round: 1, Hash: hashOf(1)}); err != nil {
		t.Fatal(err)
	}
	if got := f.CommitEpochs(); got != 1 {
		t.Fatalf("%d epochs, want only the one before the stop", got)
	}
	st, ok, err := f.LoadSession("s0")
	if err != nil || !ok || len(st.Tail) != 2 {
		t.Fatalf("journal after fallback append: ok=%v err=%v tail=%d", ok, err, len(st.Tail))
	}
}

// TestGroupCommitFlushModePinned: the flush mode is fixed when the store
// is opened. Under syncfs every epoch is one barrier, so fsyncs equal
// epochs however many sessions take turns; per file, every parked
// appender holds its own file until the epoch flushes, and the epoch
// fsyncs each of them.
func TestGroupCommitFlushModePinned(t *testing.T) {
	t.Run("syncfs", func(t *testing.T) {
		f, _ := armed(t, 3, 0, false, nil)
		for r := 0; r < 12; r++ {
			if err := f.Append(fmt.Sprintf("s%d", r%3), Record{Type: RecordPlay, Round: r / 3, Hash: hashOf(r / 3)}); err != nil {
				t.Fatal(err)
			}
		}
		if fsyncs, epochs := f.Fsyncs(), f.CommitEpochs(); epochs != 12 || fsyncs != epochs {
			t.Fatalf("%d fsyncs over %d epochs, want one barrier per epoch", fsyncs, epochs)
		}
	})
	t.Run("per-handle", func(t *testing.T) {
		var log epochLog
		f, gc := armed(t, 2, 0, true, log.record)
		takeBaton(t, gc)
		parked := appendAsync(t, f, gc, "s0", "s1", "s0")
		gc.handoff()
		for i, ch := range parked {
			if err := recv(t, ch); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if synced, tickets := log.snapshot(); fmt.Sprint(synced, tickets) != "[3] [3]" {
			t.Fatalf("epoch synced %v of tickets %v, want every parked appender's file: [3] [3]", synced, tickets)
		}
		if got := f.Fsyncs(); got != 3 {
			t.Fatalf("%d fsyncs, want 3", got)
		}
	})
}

// openWAL opens a session's file for appending, as an appender does.
func openWAL(t *testing.T, f *File, id string) *os.File {
	t.Helper()
	w, err := os.OpenFile(f.path(id, ".wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}
