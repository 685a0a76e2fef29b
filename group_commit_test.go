package gameauthority_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/store"
)

// TestGroupCommitFsyncGate is the durability-tax regression gate: K
// concurrent sessions each playing M batches of B rounds under group
// commit must finish with every bound below held, and none of them reads
// a clock. An epoch exists only because an append led it, so epochs can
// never exceed the K*M appends; each epoch fsyncs at most the file of
// each append parked on it, one per session; and — the amortization that
// pays for the whole subsystem — there are far fewer fsyncs than durable
// plays. How many appends share an epoch is the flush's duration against
// the arrival rate, which a test cannot pin; the store's own white-box
// tests pin the protocol.
func TestGroupCommitFsyncGate(t *testing.T) {
	const (
		k = 8  // concurrent sessions
		m = 10 // batches per session
		b = 10 // rounds per batch
	)
	ctx := context.Background()
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, ok := st.(*store.File)
	if !ok {
		t.Fatalf("NewFileStore returned %T, want *store.File", st)
	}
	a := ga.NewAuthority(ga.WithStore(st),
		ga.WithGroupCommit(time.Hour, 1<<20), // the window only arms the committer: nothing waits on it
		ga.WithSnapshotEvery(0))
	defer a.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, k)
	sessions := make([]*ga.HostedSession, k)
	for i := range sessions {
		h, err := a.CreateFromSpec(ga.CreateSessionRequest{
			ID:   fmt.Sprintf("gate-%02d", i),
			Game: "pd",
			Seed: uint64(7000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = h
	}
	for _, h := range sessions {
		wg.Add(1)
		go func(h *ga.HostedSession) {
			defer wg.Done()
			for j := 0; j < m; j++ {
				if _, err := h.PlayN(ctx, b, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(h)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	epochs := f.CommitEpochs()
	fsyncs := f.Fsyncs()
	plays := int64(k * m * b)
	appends := int64(k * m)
	t.Logf("%d plays in %d batch appends: %d epochs, %d fsyncs", plays, appends, epochs, fsyncs)

	// An epoch exists only if an append led it.
	if epochs == 0 || epochs > appends {
		t.Errorf("commit epochs %d outside (0, %d batch appends]", epochs, appends)
	}
	// Per-file accounting: each epoch fsyncs at most one file per session
	// (a session has one append in flight); the bound keeps K of slack.
	if fsyncs > epochs*k+k {
		t.Errorf("fsyncs %d exceed epochs(%d)*K(%d)+K", fsyncs, epochs, k)
	}
	// The durability tax actually amortized: one fsync per *batch append*
	// at the very worst, never one per play.
	if fsyncs > appends {
		t.Errorf("fsyncs %d exceed batch appends %d — group commit amortized nothing", fsyncs, appends)
	}
	if fsyncs >= plays {
		t.Errorf("fsyncs %d not below the %d durable plays", fsyncs, plays)
	}

	// The counters surfaced on /metrics must mirror the store's own.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
