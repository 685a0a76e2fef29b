package gameauthority_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/store"
)

// storeServer builds a store-backed authority behind an httptest server.
func storeServer(t *testing.T, st ga.Store) (*ga.Authority, *httptest.Server) {
	t.Helper()
	a := ga.NewAuthority(ga.WithStore(st))
	srv := httptest.NewServer(ga.NewServer(a))
	t.Cleanup(srv.Close)
	return a, srv
}

func durPost(t *testing.T, url string, body any, want int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(payload)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, data)
	}
	return data
}

func durGet(t *testing.T, url string, want int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, want, data)
	}
	return data
}

// TestServerSnapshotEndpoints drives the full durable HTTP surface:
// create, play, snapshot, list snapshots.
func TestServerSnapshotEndpoints(t *testing.T) {
	_, srv := storeServer(t, ga.NewMemStore())

	durPost(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "snap-1", Game: "pd", Seed: 4}, http.StatusCreated)
	durPost(t, srv.URL+"/sessions/snap-1/play", map[string]int{"rounds": 5}, http.StatusOK)

	var snap struct {
		ID        string `json:"id"`
		Kind      string `json:"kind"`
		Rounds    int    `json:"rounds"`
		Digest    string `json:"digest"`
		Persisted bool   `json:"persisted"`
	}
	if err := json.Unmarshal(durPost(t, srv.URL+"/sessions/snap-1/snapshot", nil, http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != "snap-1" || snap.Kind != "pure" || snap.Rounds != 5 || snap.Digest == "" || !snap.Persisted {
		t.Fatalf("snapshot response: %+v", snap)
	}

	var listing []struct {
		ID     string `json:"id"`
		Rounds int    `json:"rounds"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(durGet(t, srv.URL+"/snapshots", http.StatusOK), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 1 || listing[0].ID != "snap-1" || listing[0].Rounds != 5 || listing[0].Digest != snap.Digest {
		t.Fatalf("snapshot listing: %+v", listing)
	}

	// Unknown sessions 404 even with a store attached.
	durPost(t, srv.URL+"/sessions/nope/snapshot", nil, http.StatusNotFound)
}

// TestRecoverRefusesJSONSnapshot pins the stated format break (DESIGN.md
// §9): a snapshot payload in the SessionSnapshot JSON written before the
// binary payload is refused by Recover, which names it in
// RecoveryReport.Failed and leaves the session in the store, and GET
// /snapshots does not list it.
func TestRecoverRefusesJSONSnapshot(t *testing.T) {
	ctx := context.Background()
	st := ga.NewMemStore()
	first := ga.NewAuthority(ga.WithStore(st))
	h, err := first.CreateFromSpec(ga.CreateSessionRequest{ID: "old-json", Game: "pd", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(ctx, 5); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	first.DetachStore()
	first.Close()
	if err := st.PutSnapshot("old-json", 5, payload); err != nil {
		t.Fatal(err)
	}
	second, srv := storeServer(t, st)
	t.Cleanup(func() { second.Close() })
	if got := strings.TrimSpace(string(durGet(t, srv.URL+"/snapshots", http.StatusOK))); got != "[]" {
		t.Fatalf("GET /snapshots listed a JSON payload: %s", got)
	}
	rep, err := second.Recover(ctx)
	if err != nil || rep.Sessions != 0 || len(rep.Failed) != 1 || !strings.Contains(rep.Failed[0], "JSON") {
		t.Fatalf("recover: %+v, %v; want old-json failed, naming JSON", rep, err)
	}
	if has, err := st.Has("old-json"); err != nil || !has {
		t.Fatalf("the refused session left the store (has %v, %v)", has, err)
	}
}

// TestCreateFromSpecPreservesJournaledLedger: re-creating an id that a
// crashed predecessor journaled must refuse with a conflict and leave
// the old ledger intact — never scrub acknowledged plays.
func TestCreateFromSpecPreservesJournaledLedger(t *testing.T) {
	ctx := context.Background()
	st := ga.NewMemStore()
	a1 := ga.NewAuthority(ga.WithStore(st))
	h, err := a1.CreateFromSpec(ga.CreateSessionRequest{ID: "keep", Game: "pd", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(ctx, 5); err != nil {
		t.Fatal(err)
	}
	a1.DetachStore() // crash: registry gone, ledger stays

	a2 := ga.NewAuthority(ga.WithStore(st))
	defer a2.Close()
	// No Recover ran: the registry misses the id, the store has it.
	if _, err := a2.CreateFromSpec(ga.CreateSessionRequest{ID: "keep", Game: "pd", Seed: 99}); !errors.Is(err, ga.ErrSessionExists) {
		t.Fatalf("duplicate durable create: err = %v, want ErrSessionExists", err)
	}
	// The refused create must not have scrubbed the journal.
	got, err := a2.GetOrRecover(ctx, "keep")
	if err != nil {
		t.Fatalf("ledger lost after refused create: %v", err)
	}
	if rounds := got.Stats().Rounds; rounds != 5 {
		t.Fatalf("recovered %d rounds, want 5", rounds)
	}
}

// TestGetOrRecoverSurvivesLeaderCancellation: the singleflight replay is
// shared by every waiter, so a leader whose client disconnected (its
// request context canceled) must not poison the restore — the replay
// runs detached and the session comes back for everyone.
func TestGetOrRecoverSurvivesLeaderCancellation(t *testing.T) {
	st := ga.NewMemStore()
	a1 := ga.NewAuthority(ga.WithStore(st))
	h, err := a1.CreateFromSpec(ga.CreateSessionRequest{ID: "gone", Game: "pd", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	a1.DetachStore() // crash: registry gone, ledger stays

	a2 := ga.NewAuthority(ga.WithStore(st))
	defer a2.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel() // the leader's client hung up before the replay even started
	got, err := a2.GetOrRecover(canceled, "gone")
	if err != nil {
		t.Fatalf("restore under a canceled leader context: %v", err)
	}
	if rounds := got.Stats().Rounds; rounds != 6 {
		t.Fatalf("recovered %d rounds, want 6", rounds)
	}
}

// TestCreateFromSpecAutoNameSkipsPredecessorIDs: a restarted host whose
// auto-id counter restarted must hop over ids the dead predecessor
// journaled instead of failing client creates with conflicts.
func TestCreateFromSpecAutoNameSkipsPredecessorIDs(t *testing.T) {
	st := ga.NewMemStore()
	a1 := ga.NewAuthority(ga.WithStore(st))
	for i := 0; i < 3; i++ { // predecessor journals s-1..s-3
		if _, err := a1.CreateFromSpec(ga.CreateSessionRequest{Game: "pd", Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a1.DetachStore()

	a2 := ga.NewAuthority(ga.WithStore(st)) // fresh counter, no Recover
	defer a2.Close()
	h, err := a2.CreateFromSpec(ga.CreateSessionRequest{Game: "pd", Seed: 9})
	if err != nil {
		t.Fatalf("auto-named create collided with predecessor ids: %v", err)
	}
	if h.ID() == "s-1" || h.ID() == "s-2" || h.ID() == "s-3" {
		t.Fatalf("auto-named create reused journaled id %s", h.ID())
	}
	// The predecessor's ledgers are untouched and still recoverable.
	states, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("store has %d sessions, want 4 (3 predecessor + 1 new)", len(states))
	}
}

// TestServerMetricsEndpoint pins the Prometheus exposition: counters
// exist, carry the right names, and move with traffic.
func TestServerMetricsEndpoint(t *testing.T) {
	_, srv := storeServer(t, ga.NewMemStore())
	before := scrapeSamples(t)
	durPost(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "m-1", Game: "pd", Seed: 1}, http.StatusCreated)
	durPost(t, srv.URL+"/sessions/m-1/play", map[string]int{"rounds": 3}, http.StatusOK)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	after, _ := parseSamples(text)
	if got := after["gameauthority_sessions"]; got != 1 {
		t.Errorf("gameauthority_sessions = %v, want 1", got)
	}
	for series, want := range map[string]float64{
		"gameauthority_sessions_created_total": 1,
		"gameauthority_plays_total":            3,
		"gameauthority_wal_records_total":      1, // one request, one record
		"gameauthority_batched_plays_total":    3,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s moved by %v, want %v", series, got, want)
		}
	}
	for _, want := range []string{
		"# TYPE gameauthority_recoveries_total counter",
		"# TYPE gameauthority_convictions_total counter",
		"# TYPE gameauthority_snapshots_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestServerRestoreOnMiss: a second server over the same store answers
// for a session only the crashed first server ever hosted.
func TestServerRestoreOnMiss(t *testing.T) {
	st := ga.NewMemStore()
	a1, srv1 := storeServer(t, st)
	durPost(t, srv1.URL+"/sessions", ga.CreateSessionRequest{ID: "lost", Game: "congestion", Players: 4, Seed: 9}, http.StatusCreated)
	durPost(t, srv1.URL+"/sessions/lost/play", map[string]int{"rounds": 6}, http.StatusOK)
	var statsBefore struct {
		Rounds         int       `json:"rounds"`
		CumulativeCost []float64 `json:"cumulative_cost"`
	}
	if err := json.Unmarshal(durGet(t, srv1.URL+"/sessions/lost", http.StatusOK), &statsBefore); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	a1.DetachStore() // SIGKILL-style: nothing synced, nothing closed

	_, srv2 := storeServer(t, st)
	// The registry is empty; stats must restore the session on the miss.
	var statsAfter struct {
		Rounds         int       `json:"rounds"`
		CumulativeCost []float64 `json:"cumulative_cost"`
	}
	if err := json.Unmarshal(durGet(t, srv2.URL+"/sessions/lost", http.StatusOK), &statsAfter); err != nil {
		t.Fatal(err)
	}
	if statsAfter.Rounds != statsBefore.Rounds {
		t.Fatalf("restored rounds %d, want %d", statsAfter.Rounds, statsBefore.Rounds)
	}
	if fmt.Sprint(statsAfter.CumulativeCost) != fmt.Sprint(statsBefore.CumulativeCost) {
		t.Fatalf("restored costs %v, want %v", statsAfter.CumulativeCost, statsBefore.CumulativeCost)
	}
	// And it keeps playing.
	durPost(t, srv2.URL+"/sessions/lost/play", map[string]int{"rounds": 2}, http.StatusOK)

	// Deleting it removes the ledger: a third host sees nothing.
	req, err := http.NewRequest(http.MethodDelete, srv2.URL+"/sessions/lost", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	durGet(t, srv2.URL+"/sessions/lost", http.StatusNotFound)
}

// TestRetiredEngineFieldIsIgnored: hosts before the pulse engine became
// the driver's own decision accepted, and journaled, a spec field that
// chose it (the last one in spec below). Such a ledger must still restore,
// to the digest a spec without the field reaches, and a client that still
// sends the field must still get its session.
func TestRetiredEngineFieldIsIgnored(t *testing.T) {
	ctx := context.Background()
	const (
		spec   = `{"id":"old","game":"publicgoods","players":4,"seed":9,"distributed":{"n":4,"f":1},"pulse_workers":4}`
		rounds = 5
	)
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("old", []byte(spec)); err != nil {
		t.Fatal(err)
	}
	a1 := ga.NewAuthority(ga.WithStore(st))
	h, err := a1.GetOrRecover(ctx, "old")
	if err != nil {
		t.Fatalf("restore a spec carrying the retired field: %v", err)
	}
	if _, err := h.Run(ctx, rounds); err != nil {
		t.Fatal(err)
	}
	a1.DetachStore() // crash: the journaled plays must replay from the old spec

	a2 := ga.NewAuthority(ga.WithStore(st))
	defer a2.Close()
	h, err = a2.GetOrRecover(ctx, "old")
	if err != nil {
		t.Fatalf("replay a ledger whose spec carries the retired field: %v", err)
	}
	var req ga.CreateSessionRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		t.Fatal(err)
	}
	verifyAgainstTwin(t, h, req, rounds)

	_, srv := storeServer(t, ga.NewMemStore())
	posted := strings.Replace(spec, `"old"`, `"posted"`, 1)
	durPost(t, srv.URL+"/sessions", json.RawMessage(posted), http.StatusCreated)
	durPost(t, srv.URL+"/sessions/posted/play", map[string]int{"rounds": 1}, http.StatusOK)
}

// TestSnapshotRacesPlays races manual snapshots — SnapshotSession and
// POST /sessions/{id}/snapshot — against PlayN(4) on a durable File-store
// session that also compacts on its own every few plays. After the host
// is abandoned, the session recovered from its ledger sits at the
// acknowledged round with the acknowledged digest: no snapshot dropped a
// journaled play or kept a stale one.
func TestSnapshotRacesPlays(t *testing.T) {
	const k = 64
	ctx := context.Background()
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(12))
	t.Cleanup(func() { a.Close() })
	srv := httptest.NewServer(ga.NewServer(a))
	t.Cleanup(srv.Close)
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "raced", Game: "congestion", Players: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	snapshots := make(chan int, 1)
	go func() {
		n := 0
		defer func() { snapshots <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, persisted, err := a.SnapshotSession("raced"); err != nil || !persisted {
				t.Errorf("SnapshotSession: persisted=%v err=%v", persisted, err)
				return
			}
			resp, err := http.Post(srv.URL+"/sessions/raced/snapshot", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST snapshot: status %d", resp.StatusCode)
				return
			}
			n += 2
		}
	}()
	for i := 0; i < k; i++ {
		if _, err := h.PlayN(ctx, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if n := <-snapshots; n == 0 {
		t.Log("no manual snapshot overlapped the plays")
	}
	want := h.Snapshot()
	if want.Rounds != 4*k {
		t.Fatalf("session at round %d, want %d", want.Rounds, 4*k)
	}

	b := ga.NewAuthority(ga.WithStore(a.DetachStore()))
	t.Cleanup(func() { b.Close() })
	if rep, err := b.Recover(ctx); err != nil || rep.Sessions != 1 || len(rep.Failed) > 0 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	r, err := b.Get("raced")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); got.Rounds != want.Rounds || got.Digest != want.Digest {
		t.Fatalf("recovered at round %d digest %.12s, acknowledged round %d digest %.12s",
			got.Rounds, got.Digest, want.Rounds, want.Digest)
	}
}

// TestCloseRacesPlayN races Close against four goroutines playing PlayN(3)
// on a durable batched-audit mixed session with a cheating deviant, so
// Close's trailing audit folds a verdict into whichever play landed last.
// The session's stage, PlayN's journal append and Close all run under the
// journal lock: fouls_total moves by exactly Stats().Fouls,
// convictions_total by the results' convicted agents, and the detached
// ledger recovers the session closed, with the digest it closed at.
func TestCloseRacesPlayN(t *testing.T) {
	ctx := context.Background()
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	t.Cleanup(func() { a.Close() })
	before := scrapeSamples(t)
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{
		ID: "close-raced", Game: "matchingpennies", Kind: "mixed", Audit: "batched", EpochLen: 16, Seed: 2,
		Deviant: &ga.DeviantSpec{Player: 0, Strategy: "commitment-cheat"},
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg      sync.WaitGroup
		once    sync.Once
		started = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := h.PlayN(ctx, 3, nil); err != nil {
					if !errors.Is(err, ga.ErrClosed) {
						t.Errorf("PlayN: %v", err)
					}
					return
				}
				once.Do(func() { close(started) })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	wg.Wait()

	st := h.Stats()
	if st.Fouls == 0 {
		t.Fatal("the deviant committed no foul; the row proves nothing")
	}
	convicted := 0
	for _, res := range h.Results() {
		convicted += len(res.Convicted)
	}
	after := scrapeSamples(t)
	if got := after["gameauthority_fouls_total"] - before["gameauthority_fouls_total"]; got != float64(st.Fouls) {
		t.Errorf("fouls_total moved by %v, Stats().Fouls = %d", got, st.Fouls)
	}
	if got := after["gameauthority_convictions_total"] - before["gameauthority_convictions_total"]; got != float64(convicted) {
		t.Errorf("convictions_total moved by %v, the results convict %d", got, convicted)
	}

	want := h.Snapshot()
	b := ga.NewAuthority(ga.WithStore(a.DetachStore()))
	t.Cleanup(func() { b.Close() })
	if rep, err := b.Recover(ctx); err != nil || rep.Sessions != 1 || len(rep.Failed) > 0 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	r, err := b.Get("close-raced")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !got.Closed || got.Rounds != want.Rounds || got.Digest != want.Digest {
		t.Fatalf("recovered closed=%v at round %d digest %.12s; closed at round %d digest %.12s",
			got.Closed, got.Rounds, got.Digest, want.Rounds, want.Digest)
	}
}

// loadCountingStore counts the LoadSession calls reaching the store it
// wraps: a full ledger read is what a restore pays.
type loadCountingStore struct {
	ga.Store
	loads atomic.Int64
}

func (s *loadCountingStore) LoadSession(id string) (store.SessionState, bool, error) {
	s.loads.Add(1)
	return s.Store.LoadSession(id)
}

// TestRecoverMemoizesFailedRestore: Recover and GetOrRecover restore
// through one path, so a ledger Recover could not revive is remembered:
// a later GetOrRecover answers the same ErrDurability without reading the
// ledger again.
func TestRecoverMemoizesFailedRestore(t *testing.T) {
	ctx := context.Background()
	fs, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &loadCountingStore{Store: fs}
	// A spec journaled by a host that knew a game this one does not.
	if err := st.CreateSession("stale", []byte(`{"id":"stale","game":"no-such-game","seed":1}`)); err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(ga.WithStore(st))
	defer a.Close()
	rep, err := a.Recover(ctx)
	if err != nil || rep.Sessions != 0 || len(rep.Failed) != 1 || !strings.HasPrefix(rep.Failed[0], "stale: ") {
		t.Fatalf("recover: %+v, %v; want the one stale ledger failed", rep, err)
	}
	loads := st.loads.Load()
	for i := 0; i < 2; i++ {
		if _, err := a.GetOrRecover(ctx, "stale"); !errors.Is(err, ga.ErrDurability) {
			t.Fatalf("GetOrRecover after a failed Recover: %v, want ErrDurability", err)
		}
	}
	if got := st.loads.Load() - loads; got != 0 {
		t.Fatalf("GetOrRecover loaded the ledger %d more times after Recover failed it", got)
	}
}
