package gameauthority_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ga "gameauthority"
)

// flakyStore wraps a Store with a switchable append failure, so breaker
// tests can degrade the journal and then heal it on demand.
type flakyStore struct {
	ga.Store
	fail func() bool
}

func (s *flakyStore) Append(id string, rec ga.Record) error {
	if s.fail() {
		return errors.New("flaky: injected append failure")
	}
	return s.Store.Append(id, rec)
}

// httptestServer serves an already-configured authority over HTTP.
func httptestServer(t *testing.T, a *ga.Authority) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(ga.NewServer(a))
	t.Cleanup(srv.Close)
	return srv
}

// TestHealthzEndpoint: GET /healthz reports liveness, the hosted-session
// count, and whether a durable store is attached.
func TestHealthzEndpoint(t *testing.T) {
	_, srv := storeServer(t, ga.NewMemStore())
	durPost(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "hz-1", Game: "pd", Seed: 1}, http.StatusCreated)

	body := durGet(t, srv.URL+"/healthz", http.StatusOK)
	text := string(body)
	for _, want := range []string{`"status":"ok"`, `"sessions":1`, `"durable":true`} {
		if !strings.Contains(text, want) {
			t.Fatalf("healthz missing %s in: %s", want, text)
		}
	}

	// A store-less authority is still healthy, just not durable.
	volatile := httptestServer(t, ga.NewAuthority())
	body = durGet(t, volatile.URL+"/healthz", http.StatusOK)
	if !strings.Contains(string(body), `"durable":false`) {
		t.Fatalf("volatile healthz = %s", body)
	}
}

// TestWithFaultPlanWiring: an armed fault plan decorates the attached
// store, plays surface ErrDurability, and injections reach /metrics.
func TestWithFaultPlanWiring(t *testing.T) {
	plan := ga.NewFaultPlan(ga.FaultConfig{Seed: 11, AppendFail: 1})
	a := ga.NewAuthority(
		ga.WithStore(ga.NewMemStore()),
		ga.WithFaultPlan(plan),
		ga.WithBreaker(-1, 0), // isolate fault accounting from the breaker
	)
	srv := httptestServer(t, a)
	before := scrapeSamples(t)["gameauthority_faults_injected_total"]

	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "chaos-1", Game: "pd", Seed: 1})
	if err != nil {
		t.Fatalf("CreateFromSpec: %v", err)
	}
	for i := 0; i < 3; i++ {
		res, perr := h.Play(context.Background())
		if !errors.Is(perr, ga.ErrDurability) {
			t.Fatalf("play %d error = %v, want ErrDurability", i, perr)
		}
		// The play itself executed; only its journal write was lost.
		if res.Round != i {
			t.Fatalf("play %d advanced to round %d", i, res.Round)
		}
	}
	if got := plan.Injected(); got != 3 {
		t.Fatalf("plan injected %d faults, want 3", got)
	}

	after, _ := parseSamples(string(durGet(t, srv.URL+"/metrics", http.StatusOK)))
	if got := after["gameauthority_faults_injected_total"] - before; got != 3 {
		t.Fatalf("gameauthority_faults_injected_total moved by %v, want 3", got)
	}
}

// TestBreakerOpensAndRecovers drives the full circuit: consecutive
// journal failures trip it, plays then fail fast (HTTP 503) without
// advancing the session, and after the cooldown a half-open probe
// against the healed store closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var failing = true
	st := &flakyStore{Store: ga.NewMemStore(), fail: func() bool { return failing }}
	a := ga.NewAuthority(
		ga.WithStore(st),
		ga.WithBreaker(3, 40*time.Millisecond),
	)
	srv := httptestServer(t, a)

	failing = false
	opens := scrapeSamples(t)["gameauthority_breaker_opens_total"]
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "brk-1", Game: "pd", Seed: 1})
	if err != nil {
		t.Fatalf("CreateFromSpec: %v", err)
	}
	failing = true

	// Three consecutive journal failures: each play still executes
	// (durability degraded, not lost), and the third trips the breaker.
	for i := 0; i < 3; i++ {
		if _, perr := h.Play(context.Background()); !errors.Is(perr, ga.ErrDurability) {
			t.Fatalf("degraded play %d error = %v, want ErrDurability", i, perr)
		}
	}
	before := h.Stats().Rounds
	if _, perr := h.Play(context.Background()); !errors.Is(perr, ga.ErrBreakerOpen) {
		t.Fatalf("play with open breaker = %v, want ErrBreakerOpen", perr)
	}
	if after := h.Stats().Rounds; after != before {
		t.Fatalf("open breaker still advanced the session: %d -> %d", before, after)
	}

	// The HTTP face fails fast too, and the trip is visible in /metrics.
	durPost(t, srv.URL+"/sessions/brk-1/play", map[string]int{"rounds": 1}, http.StatusServiceUnavailable)
	after, _ := parseSamples(string(durGet(t, srv.URL+"/metrics", http.StatusOK)))
	if got := after["gameauthority_breaker_opens_total"] - opens; got != 1 {
		t.Fatalf("gameauthority_breaker_opens_total moved by %v, want 1", got)
	}

	// Heal the store and wait out the cooldown: the half-open probe play
	// succeeds and closes the breaker for good.
	failing = false
	time.Sleep(60 * time.Millisecond)
	if _, perr := h.Play(context.Background()); perr != nil {
		t.Fatalf("half-open probe failed: %v", perr)
	}
	if _, perr := h.Play(context.Background()); perr != nil {
		t.Fatalf("post-recovery play failed: %v", perr)
	}
	if got := h.Stats().Rounds; got != before+2 {
		t.Fatalf("recovered session at round %d, want %d", got, before+2)
	}
}

// TestBreakerReopensOnFailedProbe: a half-open probe that fails re-trips
// the breaker immediately instead of readmitting a storm of plays.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	var failing = false
	st := &flakyStore{Store: ga.NewMemStore(), fail: func() bool { return failing }}
	a := ga.NewAuthority(ga.WithStore(st), ga.WithBreaker(2, 25*time.Millisecond))

	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "brk-2", Game: "pd", Seed: 1})
	if err != nil {
		t.Fatalf("CreateFromSpec: %v", err)
	}
	failing = true
	for i := 0; i < 2; i++ {
		if _, perr := h.Play(context.Background()); !errors.Is(perr, ga.ErrDurability) {
			t.Fatalf("degraded play %d error = %v", i, perr)
		}
	}
	time.Sleep(40 * time.Millisecond)
	// Probe against the still-broken store: one degraded play, then the
	// breaker is open again without waiting for a fresh failure streak.
	if _, perr := h.Play(context.Background()); !errors.Is(perr, ga.ErrDurability) {
		t.Fatalf("failed probe error = %v, want ErrDurability", perr)
	}
	if _, perr := h.Play(context.Background()); !errors.Is(perr, ga.ErrBreakerOpen) {
		t.Fatalf("post-probe play = %v, want ErrBreakerOpen", perr)
	}
}

// TestReadersNeverWaitOnJournal pins why a hosted play's journal append
// runs after the driver's lock is released: the journal lock is held
// across the store's write, the driver's is not, so Stats, Results,
// ResultAt and Snapshot answer while a play waits on a slow disk.
func TestReadersNeverWaitOnJournal(t *testing.T) {
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()),
		ga.WithFaultPlan(ga.NewFaultPlan(ga.FaultConfig{SlowIO: 1, IODelay: 300 * time.Millisecond})))
	defer a.Close()
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{ID: "slow-disk", Game: "pd", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	played := make(chan error, 1)
	go func() {
		_, err := h.PlayN(context.Background(), 4, nil)
		played <- err
	}()
	// Four rounds recorded: the call is now in its append.
	for h.Stats().Rounds < 4 {
		time.Sleep(time.Millisecond)
	}
	_ = h.Stats()
	if got := len(h.Results()); got != 4 {
		t.Fatalf("Results holds %d plays, want 4", got)
	}
	if _, ok := h.ResultAt(3); !ok {
		t.Fatal("ResultAt(3) lost the play")
	}
	if snap := h.Snapshot(); snap.Rounds != 4 {
		t.Fatalf("Snapshot at round %d, want 4", snap.Rounds)
	}
	select {
	case err := <-played:
		t.Fatalf("the play returned (%v) before the readers did: they waited on its append", err)
	default:
	}
	if err := <-played; err != nil {
		t.Fatal(err)
	}
}
