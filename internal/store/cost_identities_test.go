package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/store"
)

// TestCostIdentities pins the exact per-request and per-play counts that
// the ledger used to be the only reader of, so a change to one fails here
// on any host, with no timing involved.
//
// Durable rows: a hosted Play and a hosted PlayN(k) at k = 2, 16, 17 and
// 64 each journal one WAL record. On a File store with a committer each
// also flushes one commit epoch of one barrier, in either flush mode (the
// lone appender leads its own epoch). Without a committer, and on the Mem
// store, no request issues a barrier.
//
// Frame rows: the bytes one record adds to a session file, per record
// shape, so any growth in the format shows up as a changed literal. A
// play frame is 43 B: a 6-byte header, the round twice, the play count,
// fouls, the convicted count and the 32 bytes of the packed hash. A batch
// of 16 is 569 B, 35 B a play; a close record with a 64-digit digest is
// 71 B. Rounds below 64 and fouls below 64 take one byte each.
//
// Distributed rows: one play at (n, f) takes PulsesPerPlay(f) = 4(f+3)+2
// pulses and a fixed number of messages, the four interactive
// consistencies' cost that E-BAP prints: 288 at (4, 1), 1,078 at (7, 2)
// and 2,200 at (10, 2).
//
// Goroutine rows: a hosted distributed session below poolMinProcs steps
// its pulses in lockstep on the caller's goroutine and starts none of its
// own, at (4, 1) and at (7, 2). At (10, 2) it starts its worker pool on the
// first play, min(GOMAXPROCS, n) goroutines, and Close releases them.
func TestCostIdentities(t *testing.T) {
	t.Run("journal", func(t *testing.T) {
		for _, row := range []struct {
			name           string
			file, commit   bool
			perFile        bool
			epochs, fsyncs int64 // per request
		}{
			{name: "mem"},
			{name: "file", file: true},
			{name: "file+commit/syncfs", file: true, commit: true, epochs: 1, fsyncs: 1},
			{name: "file+commit/per-file", file: true, commit: true, perFile: true, epochs: 1, fsyncs: 1},
		} {
			t.Run(row.name, func(t *testing.T) {
				st := store.Store(store.NewMem())
				var f *store.File
				if row.file {
					var err error
					if f, err = store.NewFile(t.TempDir()); err != nil {
						t.Fatal(err)
					}
					switch {
					case row.perFile:
						store.PerFileFlush(f)
					case row.commit && !store.HasSyncfs(f):
						t.Skip("no syncfs on this platform")
					}
					st = f
				}
				opts := []ga.AuthorityOption{ga.WithStore(st), ga.WithSnapshotEvery(0)}
				if row.commit {
					opts = append(opts, ga.WithGroupCommit(time.Hour, 256))
				}
				a := ga.NewAuthority(opts...)
				defer a.Close()
				h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "cost", Game: "pd", Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				counts := func() (records int, epochs, fsyncs int64) {
					state, ok, err := st.LoadSession("cost")
					if err != nil || !ok {
						t.Fatalf("load: ok=%v err=%v", ok, err)
					}
					if f != nil {
						epochs, fsyncs = f.CommitEpochs(), f.Fsyncs()
					}
					return len(state.Tail), epochs, fsyncs
				}
				ctx := context.Background()
				type request struct {
					name string
					do   func() error
				}
				requests := []request{{"Play", func() error { _, err := h.Play(ctx); return err }}}
				for _, k := range []int{2, 16, 17, 64} {
					requests = append(requests, request{fmt.Sprintf("PlayN(%d)", k),
						func() error { _, err := h.PlayN(ctx, k, nil); return err }})
				}
				for _, req := range requests {
					for i := 0; i < 4; i++ {
						r0, e0, s0 := counts()
						if err := req.do(); err != nil {
							t.Fatal(err)
						}
						r1, e1, s1 := counts()
						if r1-r0 != 1 || e1-e0 != row.epochs || s1-s0 != row.fsyncs {
							t.Fatalf("%s #%d: %d records, %d epochs, %d fsyncs; want 1, %d, %d",
								req.name, i, r1-r0, e1-e0, s1-s0, row.epochs, row.fsyncs)
						}
					}
				}
			})
		}
	})

	t.Run("frames", func(t *testing.T) {
		dir := t.TempDir()
		f, err := store.NewFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.CreateSession("frames", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		hash := strings.Repeat("ab", 32)
		plays := make([]store.BatchPlay, 16)
		for i := range plays {
			plays[i] = store.BatchPlay{Round: 1 + i, Hash: hash}
		}
		size := func() int64 {
			info, err := os.Stat(filepath.Join(dir, "sessions", "frames.wal"))
			if err != nil {
				t.Fatal(err)
			}
			return info.Size()
		}
		for _, row := range []struct {
			name  string
			rec   store.Record
			bytes int64
		}{
			{"Play", store.Record{Type: store.RecordPlay, Round: 0, Hash: hash}, 43},
			{"PlayN(16)", store.Record{Type: store.RecordBatch, Plays: plays}, 569},
			{"close", store.Record{Type: store.RecordClose, Digest: hash}, 71},
		} {
			before := size()
			if err := f.Append("frames", row.rec); err != nil {
				t.Fatal(err)
			}
			if got := size() - before; got != row.bytes {
				t.Errorf("a %s frame is %d B, want %d", row.name, got, row.bytes)
			}
		}
	})

	t.Run("distributed", func(t *testing.T) {
		for _, row := range []struct {
			n, f     int
			messages int64 // per play
		}{
			{4, 1, 288},
			{7, 2, 1078},
			{10, 2, 2200},
		} {
			t.Run(fmt.Sprintf("n%d-f%d", row.n, row.f), func(t *testing.T) {
				pulses := int64(4*(row.f+3) + 2)
				if got := ga.PulsesPerPlay(row.f); int64(got) != pulses {
					t.Fatalf("PulsesPerPlay(%d) = %d, want 4(f+3)+2 = %d", row.f, got, pulses)
				}
				g, err := ga.PublicGoods(row.n, 2)
				if err != nil {
					t.Fatal(err)
				}
				s, err := ga.New(g, ga.WithDistributed(row.n, row.f, nil), ga.WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				ctx := context.Background()
				for i := 0; i < 4; i++ {
					wantP, wantM := pulses, row.messages
					if i == 0 {
						// The session's first play ends one pulse short of a
						// clock period: one pulse, n² messages, less.
						wantP, wantM = pulses-1, row.messages-int64(row.n*row.n)
					}
					before := s.Stats()
					if _, err := s.Play(ctx); err != nil {
						t.Fatal(err)
					}
					after := s.Stats()
					if dp, dm := after.Pulses-before.Pulses, after.Messages-before.Messages; dp != wantP || dm != wantM {
						t.Fatalf("play %d: %d pulses, %d messages; want %d and %d", i, dp, dm, wantP, wantM)
					}
				}
			})
		}
	})

	t.Run("goroutines", func(t *testing.T) {
		a := ga.NewAuthority()
		defer a.Close()
		for _, row := range []struct{ n, f, pool int }{
			{4, 1, 0},
			{7, 2, 0},
			{10, 2, min(runtime.GOMAXPROCS(0), 10)},
		} {
			base := settledGoroutines()
			req := ga.CreateSessionRequest{Game: "publicgoods", Players: row.n, Seed: 1}
			req.Distributed = &struct {
				N int `json:"n"`
				F int `json:"f"`
			}{N: row.n, F: row.f}
			h, err := a.CreateFromSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Run(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			if added := settledGoroutines() - base; added != row.pool {
				t.Errorf("a hosted (%d, %d) session added %d goroutines, want %d", row.n, row.f, added, row.pool)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if left := settledGoroutines() - base; left != 0 {
				t.Errorf("a closed hosted (%d, %d) session left %d goroutines", row.n, row.f, left)
			}
		}
	})
}

// settledGoroutines reads the goroutine count once it has stopped falling:
// a closed pool's workers exit when the scheduler next runs them, so a
// read taken right after Close can still count them.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, quiet = now, 0
		}
	}
	return n
}
