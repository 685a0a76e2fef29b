package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sessionDir lists a File store's sessions directory.
func sessionDir(t *testing.T, f *File) []string {
	t.Helper()
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFileOneFilePerSession: create, append, compaction and delete each
// leave exactly the session's one file — or, after the delete, nothing —
// and no temp file behind.
func TestFileOneFilePerSession(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	steps := []struct {
		name string
		op   func() error
		want []string
	}{
		{"create", func() error { return f.CreateSession("one", []byte(`{"game":"pd"}`)) }, []string{"one.wal"}},
		{"append", func() error { return f.Append("one", batchRec(0, 4)) }, []string{"one.wal"}},
		{"snapshot", func() error { return f.PutSnapshot("one", 2, []byte(`{"rounds":2}`)) }, []string{"one.wal"}},
		{"append after snapshot", func() error { return f.Append("one", batchRec(4, 4)) }, []string{"one.wal"}},
		{"full compaction", func() error { return f.PutSnapshot("one", 8, []byte(`{"rounds":8}`)) }, []string{"one.wal"}},
		{"delete", func() error { return f.Delete("one") }, nil},
	}
	for _, step := range steps {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := sessionDir(t, f); !slices.Equal(got, step.want) {
			t.Fatalf("after %s the sessions directory holds %v, want %v", step.name, got, step.want)
		}
	}
}

// TestNewFileRefusesLegacyLayout: a data directory written in the retired
// three-file layout does not carry over, and NewFile says so by name
// instead of reading it as empty.
func TestNewFileRefusesLegacyLayout(t *testing.T) {
	for _, legacy := range []string{"s-1.spec", "s-1.snap"} {
		dir := t.TempDir()
		sessions := filepath.Join(dir, "sessions")
		if err := os.MkdirAll(sessions, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"s-1.wal", legacy} {
			if err := os.WriteFile(filepath.Join(sessions, name), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f, err := NewFile(dir)
		if !errors.Is(err, ErrLegacyLayout) || !strings.Contains(err.Error(), legacy) {
			t.Fatalf("NewFile over %s: store %v, err %v; want ErrLegacyLayout naming the file", legacy, f, err)
		}
	}
}

// TestFileCompactionCopiesSuffix: compaction keeps the magic and spec
// frames and the uncovered records byte for byte, and a fully covered log
// becomes magic, spec and snapshot after reading only its newest record —
// a damaged frame it drops is never read. Damage inside the suffix it
// keeps is refused.
func TestFileCompactionCopiesSuffix(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CreateSession("c", []byte(`{"game":"pd"}`)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{batchRec(0, 4), batchRec(4, 4), batchRec(8, 4)} {
		if err := f.Append("c", rec); err != nil {
			t.Fatal(err)
		}
	}
	path := f.path("c", ".wal")
	read := func() [][]byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return frames(data)
	}
	before := read() // magic, spec, rounds 0-3, 4-7, 8-11
	if err := f.PutSnapshot("c", 6, []byte(`{"rounds":6}`)); err != nil {
		t.Fatal(err)
	}
	after := read() // magic, spec, snapshot, rounds 4-7, 8-11
	if len(after) != 5 || !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) ||
		!bytes.Equal(after[3], before[3]) || !bytes.Equal(after[4], before[4]) {
		t.Fatalf("compaction did not copy the head frames and the uncovered records:\n%x\n%x", before, after)
	}

	// Damage the straddling batch: the newest record alone shows the
	// watermark covers everything, so the damaged frame is dropped unread.
	damage := func(i int) {
		frames := read()
		frames[i][len(frames[i])-1] ^= 0xFF // a hash byte
		if err := os.WriteFile(path, bytes.Join(frames, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(3)
	if err := f.PutSnapshot("c", 12, []byte(`{"rounds":12}`)); err != nil {
		t.Fatalf("full compaction read the log it drops: %v", err)
	}
	if frames := read(); len(frames) != 3 || !bytes.Equal(frames[1], before[1]) {
		t.Fatalf("a fully covered log became %x, want magic, spec and snapshot", frames)
	}
	state, ok, err := f.LoadSession("c")
	if err != nil || !ok || state.SnapshotRounds != 12 || string(state.Snapshot) != `{"rounds":12}` || len(state.Tail) != 0 {
		t.Fatalf("after full compaction: %+v, ok=%v err=%v", state, ok, err)
	}

	// Damage a record the next snapshot must keep: compaction, load and
	// the next append's tail repair all refuse the file.
	for r := 12; r < 15; r++ {
		if err := f.Append("c", Record{Type: RecordPlay, Round: r, Hash: hashOf(r)}); err != nil {
			t.Fatal(err)
		}
	}
	damage(4) // round 13, between two valid records
	delete(f.repaired, "c")
	if err := f.PutSnapshot("c", 13, []byte(`{"rounds":13}`)); err == nil {
		t.Fatal("compaction kept a suffix with a corrupt record in it")
	}
	if _, _, err := f.LoadSession("c"); err == nil {
		t.Fatal("load accepted a corrupt record before a valid one")
	}
	if err := f.Append("c", Record{Type: RecordPlay, Round: 15, Hash: hashOf(15)}); err == nil {
		t.Fatal("append resumed over a corrupt record")
	}
}

// TestFileCompactionPastADamagedTail: a damaged final frame is a torn
// tail to the reader, even when the damage hits its round and makes it
// look covered. Compaction must not take it for the newest frame it
// drops, or the records before it that the snapshot does not cover would
// go with it.
func TestFileCompactionPastADamagedTail(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CreateSession("c", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{batchRec(0, 4), batchRec(4, 4), {Type: RecordPlay, Round: 8, Hash: hashOf(8)}} {
		if err := f.Append("c", rec); err != nil {
			t.Fatal(err)
		}
	}
	path := f.path("c", ".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := frames(data) // magic, spec, rounds 0-3, 4-7, 8
	last := fs[4]
	if last[6] != 16 { // after length, type and checksum: round 8, zig-zag
		t.Fatalf("the play frame's round byte is %d, want 16", last[6])
	}
	last[6] = 4 // round 2
	if err := os.WriteFile(path, bytes.Join(fs, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.PutSnapshot("c", 6, []byte(`{"rounds":6}`)); err != nil {
		t.Fatal(err)
	}
	state, ok, err := f.LoadSession("c")
	if err != nil || !ok || len(state.Tail) != 1 || state.Tail[0].LastRound() != 7 {
		t.Fatalf("after compaction past a damaged tail: %+v, ok=%v err=%v; want the batch of rounds 4-7", state.Tail, ok, err)
	}
}

// TestFileSpecLineChecked: a session file whose magic is not followed by
// a valid spec frame is corrupt; load, compaction and append refuse it.
func TestFileSpecLineChecked(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CreateSession("s", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("s", Record{Type: RecordPlay, Round: 0, Hash: hashOf(0)}); err != nil {
		t.Fatal(err)
	}
	path := f.path("s", ".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+2] ^= 0x01 // the spec frame's checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	delete(f.repaired, "s")
	if _, _, err := f.LoadSession("s"); err == nil {
		t.Fatal("load accepted a damaged spec frame")
	}
	if err := f.PutSnapshot("s", 1, []byte(`{}`)); err == nil {
		t.Fatal("compaction copied a damaged spec frame")
	}
	if err := f.Append("s", Record{Type: RecordPlay, Round: 1, Hash: hashOf(1)}); err == nil {
		t.Fatal("append resumed on a file with a damaged spec frame")
	}
}

// TestFileRefusesJSONLines: a session file written as JSON lines, the
// format before binary frames, does not carry over. Load, compaction and
// append refuse it by name, ErrLegacyFormat, rather than reading it as
// damaged or truncating it as a torn tail.
func TestFileRefusesJSONLines(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	legacy := "31027e6f {\"t\":\"spec\",\"spec\":\"eyJnYW1lIjoicGQiLCJzZWVkIjoxfQ==\"}\n"
	if err := os.WriteFile(f.path("old", ".wal"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.LoadSession("old"); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("load: %v, want ErrLegacyFormat", err)
	}
	if err := f.PutSnapshot("old", 1, []byte(`{}`)); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("compaction: %v, want ErrLegacyFormat", err)
	}
	if err := f.Append("old", Record{Type: RecordPlay, Round: 0, Hash: hashOf(0)}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("append: %v, want ErrLegacyFormat", err)
	}
	if data, err := os.ReadFile(f.path("old", ".wal")); err != nil || string(data) != legacy {
		t.Fatalf("the refused file changed: %q, %v", data, err)
	}
}

// encodeState writes a state back as a session file, frame by frame, as
// CreateSession, PutSnapshot and Append would have.
func encodeState(st SessionState) []byte {
	buf := appendFrame(slices.Clip(magic), frameSpec, 0, st.Spec, nil)
	if st.SnapshotRounds != 0 || st.Snapshot != nil {
		buf = appendFrame(buf, frameSnap, st.SnapshotRounds, st.Snapshot, nil)
	}
	for i := range st.Tail {
		buf = appendRecordFrame(buf, &st.Tail[i])
	}
	return buf
}

// frames splits a session file at its frame boundaries, header by header;
// a rest that is no frame is the last element.
func frames(data []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); {
		fr, ok := readFrame(data, off, false)
		if !ok {
			return append(out, data[off:])
		}
		out = append(out, data[off:fr.end])
		off = fr.end
	}
	return out
}

// reseal rewrites the checksum of every frame whose header reads, so the
// fuzzer reaches the rules behind the CRC; past a header that does not
// read it tries the next byte.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; off < len(out); off++ {
		if fr, ok := readFrame(out, off, false); ok {
			at := fr.end - len(fr.body)
			binary.LittleEndian.PutUint32(out[at-4:], checksum(checksum(0, out[at-5:at-4]), fr.body))
			off = fr.end - 1
		}
	}
	return out
}

// FuzzSessionFile feeds arbitrary bytes to the session-file reader and
// to compaction. No input may panic. An accepted file must re-encode and
// re-parse to the same state; damaging any of the re-encoded file's frames
// but the last must get it refused; and compacting it at any watermark
// keeps exactly the records after the newest covered one. With reseal
// the fuzzer's frames get valid checksums, so it explores the bodies and
// the frame order instead of the CRC.
func FuzzSessionFile(f *testing.F) {
	spec := appendFrame(slices.Clip(magic), frameSpec, 0, []byte(`{"game":"pd","seed":1}`), nil)
	snap := appendFrame(nil, frameSnap, 4, []byte(`{"rounds":4}`), nil)
	play := appendRecordFrame(nil, &Record{Type: RecordPlay, Round: 4, Hash: hashOf(4), Fouls: 1, Convicted: []int{0}})
	batch := batchRec(5, 3)
	batchFrame := appendRecordFrame(nil, &batch)
	closed := appendRecordFrame(nil, &Record{Type: RecordClose, Digest: "d"})
	whole := slices.Concat(spec, snap, play, batchFrame, closed)
	midCorrupt := slices.Concat(spec, play, batchFrame)
	midCorrupt[len(spec)+12] ^= 0xFF
	badSum := slices.Clone(spec)
	badSum[len(magic)+2] ^= 0xFF
	for _, seed := range [][]byte{
		spec,  // spec only
		whole, // spec + snapshot + tail
		slices.Concat(spec, play, batchFrame[:20]), // torn tail
		whole[:len(whole)-1],                       // a final frame one byte short
		midCorrupt,                                 // mid-file corruption
		slices.Concat(magic, play, batchFrame),     // missing spec frame
		slices.Concat(spec, snap, snap),            // a head frame out of place
		badSum,                                     // a bad checksum, resealed below
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		st, end, err := parseSession("fz", data)
		compacted, cerr := compact("fz", data, 6, []byte(`{"rounds":6}`))
		if err != nil {
			return
		}
		if end > len(data) {
			t.Fatalf("end %d past the file's %d bytes", end, len(data))
		}
		enc := encodeState(st)
		again, _, err := parseSession("fz", enc)
		if err != nil {
			t.Fatalf("the re-encoded file is refused: %v\n%x", err, enc)
		}
		if !bytes.Equal(encodeState(again), enc) || again.Closed != st.Closed || again.CloseDigest != st.CloseDigest {
			t.Fatalf("re-parse changed the state:\n%+v\n%+v", st, again)
		}
		fs := frames(enc)
		for i := 0; i < len(fs)-1; i++ {
			damaged := slices.Concat(fs...)
			damaged[len(slices.Concat(fs[:i+1]...))-1] ^= 0xFF // frame i's last byte
			if _, _, err := parseSession("fz", damaged); err == nil {
				t.Fatalf("frame %d damaged, yet the file was accepted:\n%x", i, damaged)
			}
		}

		if cerr != nil {
			t.Fatalf("compaction refused an accepted file: %v", cerr)
		}
		got, _, err := parseSession("fz", compacted)
		if err != nil {
			t.Fatalf("compaction wrote a file the reader refuses: %v\n%x", err, compacted)
		}
		keep := 0
		for i := range st.Tail {
			if covered(&st.Tail[i], 6) {
				keep = i + 1
			}
		}
		want := st
		want.SnapshotRounds, want.Snapshot, want.Tail = 6, []byte(`{"rounds":6}`), st.Tail[keep:]
		if !bytes.Equal(encodeState(got), encodeState(want)) {
			t.Fatalf("compaction at 6 kept\n%+v\nwant\n%+v", got, want)
		}
	})
}
