package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gameauthority/internal/obs"
)

// backends builds one fresh store per backend for table-driven tests.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	file, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	mem := NewMem()
	t.Cleanup(func() { mem.Close() })
	return map[string]Store{"mem": mem, "file": file}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("s-1", []byte(`{"game":"pd"}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.CreateSession("s-1", nil); !errors.Is(err, ErrSessionExists) {
				t.Fatalf("duplicate create: err = %v, want ErrSessionExists", err)
			}
			if err := st.Append("nope", Record{Type: RecordPlay}); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("append to unknown session: err = %v, want ErrUnknownSession", err)
			}
			for r := 0; r < 5; r++ {
				rec := Record{Type: RecordPlay, Round: r, Hash: fmt.Sprintf("h%d", r)}
				if r == 3 {
					rec.Fouls = 1
					rec.Convicted = []int{0}
				}
				if err := st.Append("s-1", rec); err != nil {
					t.Fatal(err)
				}
			}
			states, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(states) != 1 {
				t.Fatalf("loaded %d sessions, want 1", len(states))
			}
			s := states[0]
			if s.ID != "s-1" || string(s.Spec) != `{"game":"pd"}` {
				t.Fatalf("bad state: %+v", s)
			}
			if len(s.Tail) != 5 || s.Tail[3].Fouls != 1 || len(s.Tail[3].Convicted) != 1 {
				t.Fatalf("bad tail: %+v", s.Tail)
			}
			if s.Closed || s.SnapshotRounds != 0 || s.Snapshot != nil {
				t.Fatalf("unexpected snapshot/close state: %+v", s)
			}
		})
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("c", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 6; r++ {
				if err := st.Append("c", Record{Type: RecordPlay, Round: r, Hash: fmt.Sprintf("h%d", r)}); err != nil {
					t.Fatal(err)
				}
			}
			// Snapshot covering rounds [0,4): plays 0-3 compact away; plays
			// 4-5 survive as the tail.
			if err := st.PutSnapshot("c", 4, []byte(`{"rounds":4}`)); err != nil {
				t.Fatal(err)
			}
			states, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			s := states[0]
			if s.SnapshotRounds != 4 || string(s.Snapshot) != `{"rounds":4}` {
				t.Fatalf("snapshot not persisted: %+v", s)
			}
			if len(s.Tail) != 2 || s.Tail[0].Round != 4 || s.Tail[1].Round != 5 {
				t.Fatalf("compaction kept wrong tail: %+v", s.Tail)
			}
			// A close record survives a later snapshot.
			if err := st.Append("c", Record{Type: RecordClose, Digest: "d"}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutSnapshot("c", 6, []byte(`{"rounds":6}`)); err != nil {
				t.Fatal(err)
			}
			states, err = st.Load()
			if err != nil {
				t.Fatal(err)
			}
			s = states[0]
			if !s.Closed || s.CloseDigest != "d" {
				t.Fatalf("close record lost by compaction: %+v", s)
			}
			if len(s.Tail) != 1 || s.Tail[0].Type != RecordClose {
				t.Fatalf("tail after full compaction: %+v", s.Tail)
			}
			infos, err := st.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].ID != "c" || infos[0].Rounds != 6 {
				t.Fatalf("snapshot listing: %+v", infos)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("d", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Append("d", Record{Type: RecordPlay, Round: 0, Hash: "h"}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutSnapshot("d", 1, []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("d"); err != nil {
				t.Fatal(err)
			}
			states, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(states) != 0 {
				t.Fatalf("deleted session still loads: %+v", states)
			}
			// The id is reusable after deletion.
			if err := st.CreateSession("d", []byte(`{"v":2}`)); err != nil {
				t.Fatalf("recreate after delete: %v", err)
			}
		})
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("x", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			if err := st.Append("x", Record{Type: RecordPlay}); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: err = %v, want ErrClosed", err)
			}
			if _, err := st.Load(); !errors.Is(err, ErrClosed) {
				t.Fatalf("load after close: err = %v, want ErrClosed", err)
			}
			if err := st.Sync(); !errors.Is(err, ErrClosed) {
				t.Fatalf("sync after close: err = %v, want ErrClosed", err)
			}
		})
	}
}

// TestFileTornTailTolerated simulates a crash mid-append: a half-written
// final WAL line must be dropped, not poison recovery.
func TestFileTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("torn", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := st.Append("torn", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "torn.wal")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0bad00 {"t":"play","rou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	states, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tail) != 3 {
		t.Fatalf("torn tail not dropped cleanly: %+v", states)
	}
}

// TestFileAppendAfterTornTail is the dangerous half of the torn-tail
// story: after a crash leaves a half-written final line, the next append
// must land on a clean line boundary. Without repair, O_APPEND glues the
// new record onto the fragment — losing that acknowledged record and,
// once further valid records follow, turning the tolerable torn tail
// into the mid-file corruption that bricks Load and compaction forever.
func TestFileAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("torn", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := st.Append("torn", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "torn.wal")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0bad00 {"t":"play","rou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// The post-recovery appends that used to glue onto the fragment.
	for r := 3; r < 5; r++ {
		if err := st2.Append("torn", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatalf("append after torn tail: %v", err)
		}
	}
	states, err := st2.Load()
	if err != nil {
		t.Fatalf("load after post-crash appends: %v", err)
	}
	if len(states) != 1 || len(states[0].Tail) != 5 {
		t.Fatalf("post-crash appends corrupted the WAL: %+v", states)
	}
	for i, rec := range states[0].Tail {
		if rec.Round != i {
			t.Fatalf("tail[%d].Round = %d, want %d", i, rec.Round, i)
		}
	}
	// Compaction (the other reader that refuses mid-file corruption) works.
	if err := st2.PutSnapshot("torn", 4, []byte(`{"rounds":4}`)); err != nil {
		t.Fatalf("compaction after post-crash appends: %v", err)
	}
	state, ok, err := st2.LoadSession("torn")
	if err != nil || !ok {
		t.Fatalf("load after compaction: ok=%v err=%v", ok, err)
	}
	if len(state.Tail) != 1 || state.Tail[0].Round != 4 {
		t.Fatalf("compacted tail: %+v", state.Tail)
	}
}

// TestFileAppendAfterClippedNewline: a crash can clip just the trailing
// newline off a fully-written, CRC-valid record. That record was
// acknowledged and the read path accepts it, so resuming appends must
// complete the line — not truncate the record away, and not glue onto it.
func TestFileAppendAfterClippedNewline(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("clip", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := st.Append("clip", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "clip.wal")
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-1); err != nil { // drop only the final '\n'
		t.Fatal(err)
	}

	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Append("clip", Record{Type: RecordPlay, Round: 3, Hash: "h"}); err != nil {
		t.Fatalf("append after clipped newline: %v", err)
	}
	states, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tail) != 4 {
		t.Fatalf("clipped-newline record lost or glued: %+v", states)
	}
	for i, rec := range states[0].Tail {
		if rec.Round != i {
			t.Fatalf("tail[%d].Round = %d, want %d", i, rec.Round, i)
		}
	}
}

// TestFileMidCorruptionRefused: corruption before valid records means lost
// acknowledged plays — Load must fail loudly instead of recovering a lie.
func TestFileMidCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("mid", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := st.Append("mid", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "mid.wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's JSON.
	i := strings.IndexByte(string(data), '{')
	data[i+5] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Load(); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	}
}

// TestFileHandleEviction drives more sessions than the handle cache holds:
// appends must keep working through evict/reopen cycles.
func TestFileHandleEviction(t *testing.T) {
	st, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.max = 4
	const sessions = 16
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s-%d", i)
		if err := st.CreateSession(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s-%d", i)
			for r := 0; r < 8; r++ {
				if err := st.Append(id, Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	states, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != sessions {
		t.Fatalf("loaded %d sessions, want %d", len(states), sessions)
	}
	for _, s := range states {
		if len(s.Tail) != 8 {
			t.Fatalf("session %s lost records through eviction: %d", s.ID, len(s.Tail))
		}
	}
}

// TestFileRejectsEscapingIDs pins the path-traversal defense.
func TestFileRejectsEscapingIDs(t *testing.T) {
	st, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, id := range []string{"", ".", "..", "a/b", `a\b`, strings.Repeat("x", 65)} {
		if err := st.CreateSession(id, nil); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
}

// TestFileAppendFailureStillObserved: an append that fails — at the write,
// or at its commit epoch — still ends its wal.append span and records its
// latency sample, so a traced fault run accounts for every append.
func TestFileAppendFailureStillObserved(t *testing.T) {
	st, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	obs.DefaultTracer.Enable(64, 1)
	defer obs.DefaultTracer.Disable()
	samples, spans := walAppendLatency.Count(), obs.DefaultTracer.Len()
	if err := st.Append("nobody", Record{Type: RecordPlay}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("append to a missing session: %v, want ErrUnknownSession", err)
	}
	if got := walAppendLatency.Count() - samples; got != 1 {
		t.Fatalf("failed append recorded %d latency samples, want 1", got)
	}
	if got := obs.DefaultTracer.Len() - spans; got != 1 {
		t.Fatalf("failed append completed %d spans, want its wal.append", got)
	}
}
