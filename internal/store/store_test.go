package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
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

// hashOf is a transcript hash as Append takes one, 64 lowercase hex
// digits, distinct per n.
func hashOf(n int) string { return fmt.Sprintf("%064x", n) }

// TestAppendRecordContract: both backends take the same records. Every
// hash a record journals — a play record's, each batch play's — is 64
// lowercase hex digits, and a close record carries none. Any other
// record, one of an unknown type included, is refused and leaves the
// journal as it was.
func TestAppendRecordContract(t *testing.T) {
	h := hashOf(0xabcdef)
	good := []Record{
		{Type: RecordPlay, Round: 0, Hash: h, Fouls: 1, Convicted: []int{2}},
		{Type: RecordBatch, Plays: []BatchPlay{{Round: 1, Hash: h}, {Round: 2, Hash: hashOf(2)}}},
		{Type: RecordClose, Digest: "d"},
	}
	bad := []Record{
		{Type: RecordPlay, Round: 3},
		{Type: RecordPlay, Round: 3, Hash: "h"},
		{Type: RecordPlay, Round: 3, Hash: strings.ToUpper(h)},
		{Type: RecordPlay, Round: 3, Hash: h[1:]},
		{Type: RecordPlay, Round: 3, Hash: h + "0"},
		{Type: RecordPlay, Round: 3, Hash: h[:63] + "g"},
		{Type: RecordBatch, Plays: []BatchPlay{{Round: 3, Hash: h}, {Round: 4, Hash: "h4"}}},
		{Type: RecordClose, Hash: h, Digest: "d"},
		{Type: "snap", Round: 3, Hash: h},
		{Round: 3, Hash: h},
	}
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("c", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			for i, rec := range good[:2] {
				if err := st.Append("c", rec); err != nil {
					t.Fatalf("good record %d refused: %v", i, err)
				}
			}
			for i, rec := range bad {
				if err := st.Append("c", rec); err == nil {
					t.Errorf("bad record %d accepted: %+v", i, rec)
				}
			}
			if err := st.Append("c", good[2]); err != nil {
				t.Fatalf("close record refused: %v", err)
			}
			state, ok, err := st.LoadSession("c")
			if err != nil || !ok {
				t.Fatalf("load: ok=%v err=%v", ok, err)
			}
			if len(state.Tail) != len(good) || state.Tail[0].Hash != h || state.Tail[1].Plays[1].Hash != hashOf(2) || state.CloseDigest != "d" {
				t.Fatalf("journal after the refused appends: %+v", state.Tail)
			}
		})
	}
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
			if err := st.Append("nope", Record{Type: RecordPlay, Hash: hashOf(0)}); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("append to unknown session: err = %v, want ErrUnknownSession", err)
			}
			for r := 0; r < 5; r++ {
				rec := Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}
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
				if err := st.Append("c", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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
			if err := st.Append("d", Record{Type: RecordPlay, Round: 0, Hash: hashOf(0)}); err != nil {
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
			if err := st.Append("x", Record{Type: RecordPlay, Hash: hashOf(0)}); !errors.Is(err, ErrClosed) {
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

// tornFrame is the first half of a record frame: what a crash mid-append
// leaves at the end of a session file.
func tornFrame(round int) []byte {
	frame := appendRecordFrame(nil, &Record{Type: RecordPlay, Round: round, Hash: hashOf(round)})
	return frame[:len(frame)/2]
}

// TestFileTornTailTolerated simulates a crash mid-append: a half-written
// final frame must be dropped, not poison recovery.
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
		if err := st.Append("torn", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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
	if _, err := f.Write(tornFrame(3)); err != nil {
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
// story: after a crash leaves a half-written final frame, the next append
// must land on a frame boundary. Without repair, O_APPEND glues the
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
		if err := st.Append("torn", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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
	if _, err := f.Write(tornFrame(3)); err != nil {
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
		if err := st2.Append("torn", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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

// TestFileAppendAfterClippedFrame: a crash can cut a final frame short by
// as little as one byte. That record was never acknowledged and the
// reader drops it, so resuming appends must truncate exactly that frame:
// not glue onto it, and not cut into the whole frame before it.
func TestFileAppendAfterClippedFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("clip", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := st.Append("clip", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "clip.wal")
	whole, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, int64(len(whole)-1)); err != nil { // drop only the final byte
		t.Fatal(err)
	}

	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for r := 2; r < 4; r++ { // round 2 again: its first append was never acknowledged
		if err := st2.Append("clip", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
			t.Fatalf("append after a clipped frame: %v", err)
		}
	}
	states, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tail) != 4 {
		t.Fatalf("clipped frame glued or a whole one lost: %+v", states)
	}
	for i, rec := range states[0].Tail {
		if rec.Round != i {
			t.Fatalf("tail[%d].Round = %d, want %d", i, rec.Round, i)
		}
	}
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(whole)], whole) {
		t.Fatal("the frames before the clipped one changed")
	}
}

// TestFileMidCorruptionRefused: corruption before valid records means lost
// acknowledged plays — Load must fail loudly instead of recovering a lie.
// A damaged length field that runs past the end of the file must not
// pass for a torn tail either: the reader looks past it for a valid frame.
func TestFileMidCorruptionRefused(t *testing.T) {
	for _, damage := range []struct {
		name string
		at   func(frame []byte) int
		flip byte
	}{
		{"body", func(frame []byte) int { return len(frame) - 1 }, 0xFF},
		{"length", func([]byte) int { return 0 }, 0x80},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.CreateSession("mid", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 3; r++ {
				if err := st.Append("mid", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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
			fs := frames(data) // magic, spec, rounds 0, 1, 2
			fs[2][damage.at(fs[2])] ^= damage.flip
			if err := os.WriteFile(wal, bytes.Join(fs, nil), 0o644); err != nil {
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
		})
	}
}

// TestFileAppendManySessions drives concurrent appends to 160 sessions:
// every record lands, and no session file stays open between calls.
func TestFileAppendManySessions(t *testing.T) {
	st, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const sessions = 160
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
				if err := st.Append(id, Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
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
			t.Fatalf("session %s holds %d records, want 8", s.ID, len(s.Tail))
		}
	}
	// Where the process lists its descriptors, none names a session file.
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, st.dir+string(filepath.Separator)) {
			t.Errorf("%s is still open after every append returned", target)
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
	if err := st.Append("nobody", Record{Type: RecordPlay, Hash: hashOf(0)}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("append to a missing session: %v, want ErrUnknownSession", err)
	}
	if got := walAppendLatency.Count() - samples; got != 1 {
		t.Fatalf("failed append recorded %d latency samples, want 1", got)
	}
	if got := obs.DefaultTracer.Len() - spans; got != 1 {
		t.Fatalf("failed append completed %d spans, want its wal.append", got)
	}
}

// TestFileCloseRacesAppends races Close against appenders on 64 sessions
// while other sessions are created, compacted and deleted. Every append
// that returned nil is in the directory a fresh store loads, and every
// append issued after Close returned reports ErrClosed. It runs with no
// committer and with one in each flush mode.
func TestFileCloseRacesAppends(t *testing.T) {
	for _, mode := range []string{"direct", "syncfs", "per-handle"} {
		t.Run(mode, func(t *testing.T) {
			var f *File
			if mode == "direct" {
				var err error
				if f, err = NewFile(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				defer f.Close()
			} else {
				f, _ = armed(t, 0, 0, mode == "per-handle", nil)
			}
			const appenders, churners = 64, 8
			for i := 0; i < appenders; i++ {
				if err := f.CreateSession(fmt.Sprintf("a%d", i), []byte(`{}`)); err != nil {
					t.Fatal(err)
				}
			}
			// Every appender lands four records, then waits for the others,
			// so Close meets all 64 mid-stream rather than the fastest few.
			var (
				wg, ready sync.WaitGroup
				release   = make(chan struct{})
				closed    = make(chan struct{})
				acked     = make([]int, appenders) // acked[i]: appends to a<i> that returned nil
			)
			ready.Add(appenders)
			for i := 0; i < appenders; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					id := fmt.Sprintf("a%d", i)
					for r := 0; ; r++ {
						if err := f.Append(id, Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("append to %s racing Close: %v", id, err)
							}
							break
						}
						if acked[i] = r + 1; acked[i] == 4 {
							ready.Done()
							<-release
						}
					}
					<-closed
					if err := f.Append(id, Record{Type: RecordPlay, Round: acked[i] + 1, Hash: hashOf(acked[i] + 1)}); !errors.Is(err, ErrClosed) {
						t.Errorf("append to %s after Close returned: %v, want ErrClosed", id, err)
					}
				}()
			}
			for i := 0; i < churners; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					id := fmt.Sprintf("c%d", i)
					for {
						err := f.CreateSession(id, []byte(`{}`))
						for r := 0; err == nil && r < 4; r++ {
							err = f.Append(id, Record{Type: RecordPlay, Round: r, Hash: hashOf(r)})
						}
						if err == nil {
							err = f.PutSnapshot(id, 2, []byte(`{}`))
						}
						if err == nil {
							err = f.Delete(id)
						}
						if err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("churn on %s racing Close: %v", id, err)
							}
							return
						}
					}
				}()
			}
			ready.Wait()
			close(release)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			close(closed)
			wg.Wait()

			g, err := NewFile(filepath.Dir(f.dir))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for i := 0; i < appenders; i++ {
				id := fmt.Sprintf("a%d", i)
				st, ok, err := g.LoadSession(id)
				if err != nil || !ok {
					t.Fatalf("reload %s: ok=%v err=%v", id, ok, err)
				}
				if len(st.Tail) < acked[i] {
					t.Fatalf("%s: %d records on disk, %d acknowledged", id, len(st.Tail), acked[i])
				}
				for r := 0; r < acked[i]; r++ {
					if st.Tail[r].Round != r {
						t.Fatalf("%s: record %d holds round %d", id, r, st.Tail[r].Round)
					}
				}
			}
		})
	}
}

// TestFileAppendIssuesNoFsyncWithoutCommitter: with no committer armed an
// append writes its line and nothing else, however many sessions take
// turns, and Sync is the barrier: one syncfs where the platform has it,
// one fsync per appended session where it does not.
func TestFileAppendIssuesNoFsyncWithoutCommitter(t *testing.T) {
	st, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const sessions, rounds = 1024, 2
	for i := 0; i < sessions; i++ {
		if err := st.CreateSession(fmt.Sprintf("s%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < sessions; i++ {
			if err := st.Append(fmt.Sprintf("s%d", i), Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := st.Fsyncs(); got != 0 {
		t.Fatalf("%d appends round robin over %d sessions issued %d fsyncs, want 0", sessions*rounds, sessions, got)
	}
	d, err := os.Open(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	syncfs, _ := syncFilesystem(d.Fd())
	d.Close()
	want := int64(sessions)
	if syncfs {
		want = 1
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Fsyncs(); got != want {
		t.Fatalf("Sync issued %d barriers, want %d (syncfs: %v)", got, want, syncfs)
	}
}

// TestNewFileRemovesTempFiles: a create or compaction killed between its
// temp file and its rename leaves <id>.wal.tmp<N> behind. The rename is
// the commit point, so that file was never acknowledged: the next NewFile
// deletes it and leaves every session alone, one whose id merely
// contains ".wal.tmp" included.
func TestNewFileRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"live", "x.wal.tmp1"} {
		if err := st.CreateSession(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(id, Record{Type: RecordPlay, Round: 0, Hash: hashOf(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "sessions", "live.wal.tmp123456")
	if err := os.WriteFile(tmp, []byte("half a compaction"), 0o600); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file of a killed write still there after NewFile: %v", err)
	}
	ids, err := st2.IDs()
	if err != nil || fmt.Sprint(ids) != "[live x.wal.tmp1]" {
		t.Fatalf("sessions after reopen: %v (%v), want [live x.wal.tmp1]", ids, err)
	}
	for _, id := range ids {
		if state, ok, err := st2.LoadSession(id); err != nil || !ok || len(state.Tail) != 1 {
			t.Fatalf("session %s after reopen: ok=%v err=%v tail=%d", id, ok, err, len(state.Tail))
		}
	}
}
