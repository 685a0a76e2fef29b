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
// the platform has it, and the per-handle fsync fallback everywhere.
func flushModes(t *testing.T, fn func(t *testing.T, perHandle bool)) {
	t.Run("syncfs", func(t *testing.T) { fn(t, false) })
	t.Run("per-handle", func(t *testing.T) { fn(t, true) })
}

// armed opens a store with sessions s0…s<n-1> and a group committer in
// the wanted flush mode. The window is an hour: anything that waited on it
// would hang the test.
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
	case perHandle && gc.dir != nil:
		// Before the first append, so the mode is still pinned for every
		// flush the committer will ever run.
		gc.dir.Close()
		gc.dir = nil
	case !perHandle && gc.dir == nil:
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
		go func() { ch <- f.Append(id, Record{Type: RecordPlay, Round: i, Hash: "h"}) }()
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
				if err := f.Append(id, Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
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
		t.Fatalf("onEpoch synced %d handles, store counted %d fsyncs", syncedTotal, f.Fsyncs())
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
			if err := f.Append("s0", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
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

		wh, err := f.handle("s0")
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := gc.commit(wh); err != nil {
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
		gc.mu.Lock()
		e := gc.head
		shape := e != nil && e == gc.tail && e.tickets == k && (!perHandle || len(e.dirty) == k)
		gc.mu.Unlock()
		if !shape {
			t.Fatalf("want one queued epoch of %d tickets, got %+v", k, e)
		}

		// Break the barrier: a closed descriptor under the syncfs anchor,
		// or under one session's handle.
		closed, err := os.Open(f.dir)
		if err != nil {
			t.Fatal(err)
		}
		closed.Close()
		var restore func()
		if perHandle {
			wh, err := f.handle(ids[2])
			if err != nil {
				t.Fatal(err)
			}
			wh.mu.Lock()
			good := wh.f
			wh.f = closed
			wh.mu.Unlock()
			restore = func() { wh.mu.Lock(); wh.f = good; wh.mu.Unlock() }
		} else {
			good := gc.dir
			gc.dir = closed
			restore = func() { gc.dir = good }
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
			want = k // one fsync per dirty handle
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
				wh := f.handles[ids[arrival+i]]
				if _, ok := e.dirty[wh]; !ok {
					t.Errorf("epoch %d does not hold arrival %d", len(sizes)-1, arrival+i)
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
		if err := gc.commit(nil); err != nil {
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
		if err := f.Append("s0", Record{Type: RecordPlay, Round: 9, Hash: "h"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after Close: %v, want ErrClosed", err)
		}
	})
}

// TestGroupCommitStoppedFallsBack: after the committer stops, appends keep
// the direct-append contract — written, acknowledged, no epoch.
func TestGroupCommitStoppedFallsBack(t *testing.T) {
	f, _ := armed(t, 1, 0, true, nil)
	if err := f.Append("s0", Record{Type: RecordPlay, Round: 0, Hash: "h"}); err != nil {
		t.Fatal(err)
	}
	f.stopCommitter()
	f.stopCommitter() // idempotent
	if err := f.Append("s0", Record{Type: RecordPlay, Round: 1, Hash: "h"}); err != nil {
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

// TestGroupCommitFlushModePinned: the flush mode chosen when the committer
// is armed decides what a handle's close costs. Under syncfs an evicted
// handle is closed without an fsync (the next barrier covers its pages),
// so fsyncs equal epochs however hard the handle cache churns; per handle,
// the close fsyncs, and the epoch that held a ticket on the closed handle
// skips it.
func TestGroupCommitFlushModePinned(t *testing.T) {
	t.Run("syncfs", func(t *testing.T) {
		f, _ := armed(t, 0, 0, false, nil)
		f.max = 1 // every create and every append below evicts a handle
		for i := 0; i < 3; i++ {
			if err := f.CreateSession(fmt.Sprintf("s%d", i), []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 12; r++ {
			if err := f.Append(fmt.Sprintf("s%d", r%3), Record{Type: RecordPlay, Round: r / 3, Hash: "h"}); err != nil {
				t.Fatal(err)
			}
		}
		if fsyncs, epochs := f.Fsyncs(), f.CommitEpochs(); epochs != 12 || fsyncs != epochs {
			t.Fatalf("%d fsyncs over %d epochs: eviction fsynced under syncfs", fsyncs, epochs)
		}
	})
	t.Run("per-handle", func(t *testing.T) {
		var log epochLog
		f, gc := armed(t, 2, 0, true, log.record)
		takeBaton(t, gc)
		parked := appendAsync(t, f, gc, "s0", "s1")
		wh, err := f.handle("s0")
		if err != nil {
			t.Fatal(err)
		}
		f.closeHandle(wh) // what an eviction does, after unmapping it
		if got := f.Fsyncs(); got != 1 {
			t.Fatalf("per-handle close issued %d fsyncs, want 1", got)
		}
		gc.handoff()
		for i, ch := range parked {
			if err := recv(t, ch); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if synced, tickets := log.snapshot(); fmt.Sprint(synced, tickets) != "[1] [2]" {
			t.Fatalf("epoch synced %v of tickets %v, want the closed handle skipped: [1] [2]", synced, tickets)
		}
	})
}
