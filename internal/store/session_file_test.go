package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
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

// TestFileCompactionCopiesSuffix: compaction keeps the spec line and the
// uncovered records byte for byte, and a fully covered log becomes spec
// plus snapshot after decoding only its newest record — a damaged line
// it drops is never read. Damage inside the suffix it keeps is refused.
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
		return bytes.SplitAfter(data, []byte("\n"))
	}
	before := read() // spec, rounds 0-3, 4-7, 8-11, ""
	if err := f.PutSnapshot("c", 6, []byte(`{"rounds":6}`)); err != nil {
		t.Fatal(err)
	}
	after := read() // spec, snapshot, rounds 4-7, 8-11, ""
	if len(after) != 5 || !bytes.Equal(after[0], before[0]) ||
		!bytes.Equal(after[2], before[2]) || !bytes.Equal(after[3], before[3]) {
		t.Fatalf("compaction did not copy the spec line and the uncovered records:\n%q\n%q", before, after)
	}

	// Damage the straddling batch: the newest record alone shows the
	// watermark covers everything, so the damaged line is dropped unread.
	damage := func(line int) {
		lines := read()
		lines[line][12] ^= 0xFF
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(2)
	if err := f.PutSnapshot("c", 12, []byte(`{"rounds":12}`)); err != nil {
		t.Fatalf("full compaction read the log it drops: %v", err)
	}
	if lines := read(); len(lines) != 3 || !bytes.Equal(lines[0], before[0]) {
		t.Fatalf("a fully covered log became %q, want spec + snapshot", lines)
	}
	state, ok, err := f.LoadSession("c")
	if err != nil || !ok || state.SnapshotRounds != 12 || string(state.Snapshot) != `{"rounds":12}` || len(state.Tail) != 0 {
		t.Fatalf("after full compaction: %+v, ok=%v err=%v", state, ok, err)
	}

	// Damage a record the next snapshot must keep: compaction, load and
	// the next append's tail repair all refuse the file.
	for r := 12; r < 15; r++ {
		if err := f.Append("c", Record{Type: RecordPlay, Round: r, Hash: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	damage(3) // round 13, between two valid records
	delete(f.repaired, "c")
	if err := f.PutSnapshot("c", 13, []byte(`{"rounds":13}`)); err == nil {
		t.Fatal("compaction kept a suffix with a corrupt record in it")
	}
	if _, _, err := f.LoadSession("c"); err == nil {
		t.Fatal("load accepted a corrupt record before a valid one")
	}
	if err := f.Append("c", Record{Type: RecordPlay, Round: 15, Hash: "h"}); err == nil {
		t.Fatal("append resumed over a corrupt record")
	}
}

// TestFileSpecLineChecked: a session file that does not open with a valid
// spec line is corrupt; load, compaction and append refuse it.
func TestFileSpecLineChecked(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CreateSession("s", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("s", Record{Type: RecordPlay, Round: 0, Hash: "h"}); err != nil {
		t.Fatal(err)
	}
	path := f.path("s", ".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01 // the spec line's checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	delete(f.repaired, "s")
	if _, _, err := f.LoadSession("s"); err == nil {
		t.Fatal("load accepted a damaged spec line")
	}
	if err := f.PutSnapshot("s", 1, []byte(`{}`)); err == nil {
		t.Fatal("compaction copied a damaged spec line")
	}
	if err := f.Append("s", Record{Type: RecordPlay, Round: 1, Hash: "h"}); err == nil {
		t.Fatal("append resumed on a file with a damaged spec line")
	}
}

// encodeState writes a state back as a session file, one appendLine per
// line, as CreateSession, PutSnapshot and Append would have.
func encodeState(t *testing.T, st SessionState) []byte {
	t.Helper()
	buf, err := appendLine(nil, fileLine{Record: Record{Type: lineSpec}, Spec: st.Spec})
	if err == nil && (st.SnapshotRounds != 0 || st.Snapshot != nil) {
		buf, err = appendLine(buf, fileLine{Record: Record{Type: lineSnap}, Rounds: st.SnapshotRounds, Payload: st.Snapshot})
	}
	for _, rec := range st.Tail {
		if err == nil {
			buf, err = appendLine(buf, rec)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// reseal rewrites every line's checksum to match its JSON, so the fuzzer
// reaches the rules behind the CRC.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; off < len(out); {
		n := bytes.IndexByte(out[off:], '\n')
		if n < 0 {
			n = len(out) - off
		}
		if line := out[off : off+n]; len(line) > 9 && line[8] == ' ' {
			copy(line, fmt.Sprintf("%08x", crc32.Checksum(line[9:], crcTable)))
		}
		off += n + 1
	}
	return out
}

// FuzzSessionFile feeds arbitrary bytes to the session-file reader and
// to compaction. No input may panic. An accepted file must re-encode and
// re-parse to the same state; damaging any of the re-encoded file's lines
// but the last must get it refused; and compacting it at any watermark
// keeps exactly the records after the newest covered one. With reseal
// the fuzzer's lines get valid checksums, so it explores the JSON and the
// line order instead of the CRC.
func FuzzSessionFile(f *testing.F) {
	line := func(v any) []byte {
		b, err := appendLine(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	spec := line(fileLine{Record: Record{Type: lineSpec}, Spec: []byte(`{"game":"pd","seed":1}`)})
	snap := line(fileLine{Record: Record{Type: lineSnap}, Rounds: 4, Payload: []byte(`{"rounds":4}`)})
	play := line(Record{Type: RecordPlay, Round: 4, Hash: "h4", Fouls: 1, Convicted: []int{0}})
	batch := line(batchRec(5, 3))
	closed := line(Record{Type: RecordClose, Digest: "d"})
	whole := slices.Concat(spec, snap, play, batch, closed)
	midCorrupt := slices.Concat(spec, play, batch)
	midCorrupt[len(spec)+12] ^= 0xFF
	for _, seed := range [][]byte{
		spec,                                   // spec only
		whole,                                  // spec + snapshot + tail
		slices.Concat(spec, play, batch[:20]),  // torn tail
		whole[:len(whole)-1],                   // clipped newline
		midCorrupt,                             // mid-file corruption
		slices.Concat(play, batch),             // missing spec line
		slices.Concat(spec, snap, snap),        // a head line out of place
		[]byte(`00000000 {"t":"spec"}` + "\n"), // a bad checksum, resealed below
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
		enc := encodeState(t, st)
		again, _, err := parseSession("fz", enc)
		if err != nil {
			t.Fatalf("the re-encoded file is refused: %v\n%q", err, enc)
		}
		if !bytes.Equal(encodeState(t, again), enc) || again.Closed != st.Closed || again.CloseDigest != st.CloseDigest {
			t.Fatalf("re-parse changed the state:\n%+v\n%+v", st, again)
		}
		lines := bytes.SplitAfter(enc, []byte("\n"))
		for i := 0; i < len(lines)-2; i++ { // the last element is the empty rest
			damaged := slices.Concat(lines...)
			damaged[len(slices.Concat(lines[:i]...))] = 'g'
			if _, _, err := parseSession("fz", damaged); err == nil {
				t.Fatalf("line %d damaged, yet the file was accepted:\n%q", i, damaged)
			}
		}

		if cerr != nil {
			t.Fatalf("compaction refused an accepted file: %v", cerr)
		}
		got, _, err := parseSession("fz", compacted)
		if err != nil {
			t.Fatalf("compaction wrote a file the reader refuses: %v\n%q", err, compacted)
		}
		keep := 0
		for i := range st.Tail {
			if covered(&st.Tail[i], 6) {
				keep = i + 1
			}
		}
		want := st
		want.SnapshotRounds, want.Snapshot, want.Tail = 6, []byte(`{"rounds":6}`), st.Tail[keep:]
		if !bytes.Equal(encodeState(t, got), encodeState(t, want)) {
			t.Fatalf("compaction at 6 kept\n%+v\nwant\n%+v", got, want)
		}
	})
}
