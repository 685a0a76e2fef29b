package store

import (
	"os"
	"testing"
)

func batchRec(first, n int) Record {
	plays := make([]BatchPlay, n)
	for i := range plays {
		plays[i] = BatchPlay{Round: first + i, Hash: hashOf(first + i)}
	}
	return Record{Type: RecordBatch, Plays: plays}
}

func TestBatchRecordRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("b", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			rec := batchRec(0, 3)
			rec.Plays[1].Fouls = 2
			rec.Plays[1].Convicted = []int{1, 3}
			if err := st.Append("b", rec); err != nil {
				t.Fatal(err)
			}
			// The store must have deep-copied: mutating the caller's
			// buffers after Append cannot reach the journal.
			rec.Plays[0].Hash = "clobbered"
			rec.Plays[1].Convicted[0] = 99
			if err := st.Append("b", Record{Type: RecordPlay, Round: 3, Hash: hashOf(3)}); err != nil {
				t.Fatal(err)
			}
			states, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			tail := states[0].Tail
			if len(tail) != 2 {
				t.Fatalf("tail has %d records, want 2: %+v", len(tail), tail)
			}
			got := tail[0]
			if got.Type != RecordBatch || len(got.Plays) != 3 {
				t.Fatalf("batch record mangled: %+v", got)
			}
			if got.Plays[0].Hash != hashOf(0) {
				t.Fatalf("batch not isolated from caller mutation: %+v", got.Plays[0])
			}
			if got.Plays[1].Fouls != 2 || len(got.Plays[1].Convicted) != 2 || got.Plays[1].Convicted[0] != 1 {
				t.Fatalf("batch play fields lost: %+v", got.Plays[1])
			}
		})
	}
}

func TestRecordLastRound(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want int
	}{
		{"play", Record{Type: RecordPlay, Round: 7}, 7},
		{"batch", batchRec(4, 3), 6},
		{"empty-batch", Record{Type: RecordBatch}, -1},
		{"close", Record{Type: RecordClose}, -1},
	}
	for _, tc := range cases {
		if got := tc.rec.LastRound(); got != tc.want {
			t.Errorf("%s: LastRound() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestBatchCompaction pins the watermark rule for batch records: a batch
// compacts away only when the snapshot covers its *last* play. A batch
// straddling the watermark survives whole — replay starts from round
// zero anyway, so the already-covered prefix is harmless, while dropping
// it would lose the uncovered suffix.
func TestBatchCompaction(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.CreateSession("c", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Append("c", batchRec(0, 4)); err != nil { // rounds 0-3: fully covered below
				t.Fatal(err)
			}
			if err := st.Append("c", batchRec(4, 4)); err != nil { // rounds 4-7: straddles the watermark
				t.Fatal(err)
			}
			if err := st.Append("c", batchRec(8, 2)); err != nil { // rounds 8-9: uncovered
				t.Fatal(err)
			}
			if err := st.PutSnapshot("c", 6, []byte(`{"rounds":6}`)); err != nil {
				t.Fatal(err)
			}
			states, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			tail := states[0].Tail
			if len(tail) != 2 {
				t.Fatalf("tail has %d records, want 2 (straddler + uncovered): %+v", len(tail), tail)
			}
			if tail[0].LastRound() != 7 || len(tail[0].Plays) != 4 {
				t.Fatalf("straddling batch not kept whole: %+v", tail[0])
			}
			if tail[1].LastRound() != 9 {
				t.Fatalf("uncovered batch lost: %+v", tail[1])
			}
		})
	}
}

// TestFileTornBatchTail tears the WAL inside the final batch record and
// checks the all-or-nothing read contract: the torn batch vanishes as a
// unit — no prefix of its plays ever surfaces — while earlier whole
// batches load intact.
func TestFileTornBatchTail(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateSession("t", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("t", batchRec(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("t", batchRec(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wal := f.path("t", ".wal")
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-9); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	state, ok, err := f2.LoadSession("t")
	if err != nil || !ok {
		t.Fatalf("load after tear: ok=%v err=%v", ok, err)
	}
	if len(state.Tail) != 1 {
		t.Fatalf("tail has %d records, want the 1 whole batch: %+v", len(state.Tail), state.Tail)
	}
	if got := state.Tail[0]; got.LastRound() != 4 || len(got.Plays) != 5 {
		t.Fatalf("surviving batch mangled: %+v", got)
	}
}
