package gameauthority_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
	"gameauthority/internal/invariant"
	"gameauthority/internal/wire"
)

// wsTestServer stands up an authority (with shard loops) behind a full
// NewServer and dials one streaming client against it.
func wsTestServer(t *testing.T, opts ...ga.AuthorityOption) (*ga.Authority, *httptest.Server, *hub.Client) {
	t.Helper()
	a := ga.NewAuthority(opts...)
	t.Cleanup(func() { a.Close() })
	srv := httptest.NewServer(ga.NewServer(a))
	t.Cleanup(srv.Close)
	c, err := hub.Dial(srv.URL)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return a, srv, c
}

// TestCrossTransportDeterminism: the same spec and seed must reach a
// byte-identical state digest whether the session is driven in process,
// over the HTTP JSON API, or over the binary streaming transport — the
// transport is a view, never an input, of the deterministic replay
// invariant.
func TestCrossTransportDeterminism(t *testing.T) {
	specs := []map[string]any{
		{"id": "det", "game": "pd", "seed": 7},
		{"id": "det", "game": "publicgoods-punish", "players": 4, "seed": 11},
		{"id": "det", "game": "minority", "players": 5, "seed": 13},
		{"id": "det", "game": "congestion", "kind": "mixed", "seed": 17},
		{"id": "det", "rra": map[string]any{"agents": 6, "resources": 3}, "seed": 19},
		{"id": "det", "game": "publicgoods", "players": 4, "distributed": map[string]any{"n": 4, "f": 1}, "seed": 23},
	}
	const rounds = 20

	for _, spec := range specs {
		name, _ := spec["game"].(string)
		if name == "" {
			name = "rra"
		}
		if _, dist := spec["distributed"]; dist {
			name += "-distributed"
		}
		t.Run(name, func(t *testing.T) {
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}

			// In process: decode the same JSON the transports carry and grow
			// the fault-free twin from it.
			var req ga.CreateSessionRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			twin, err := invariant.Twin(context.Background(), req, rounds)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			defer twin.Close()
			want := invariant.StateOf(twin)
			if want.Digest == "" {
				t.Fatal("in-process digest empty")
			}

			// HTTP JSON transport.
			httpAuthority := ga.NewAuthority()
			defer httpAuthority.Close()
			httpSrv := httptest.NewServer(ga.NewServer(httpAuthority))
			defer httpSrv.Close()
			httpDigest, httpRounds := playOverHTTP(t, httpSrv.URL, body, rounds)

			// Binary streaming transport, with plays routed through the
			// shard loops.
			_, _, client := wsTestServer(t, ga.WithShards(2))
			ref, _, err := client.Create(body)
			if err != nil {
				t.Fatalf("ws create: %v", err)
			}
			out, err := client.Play(ref, rounds)
			if err != nil {
				t.Fatalf("ws play: %v", err)
			}
			if out.Completed != rounds {
				t.Fatalf("ws completed %d rounds, want %d", out.Completed, rounds)
			}
			snap, err := client.Snapshot(ref)
			if err != nil {
				t.Fatalf("ws snapshot: %v", err)
			}

			if err := invariant.CheckTwinState(want, invariant.State{Rounds: int(httpRounds), Digest: httpDigest}); err != nil {
				t.Errorf("HTTP: %v", err)
			}
			if err := invariant.CheckTwinState(want, invariant.State{Rounds: int(snap.Rounds), Digest: snap.Digest}); err != nil {
				t.Errorf("WS: %v", err)
			}
		})
	}
}

// playOverHTTP creates a session from spec, plays it, and returns the
// snapshot digest and round count.
func playOverHTTP(t *testing.T, base string, spec []byte, rounds int) (string, uint64) {
	t.Helper()
	post := func(path string, body []byte, want int) map[string]any {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d (%v)", path, resp.StatusCode, want, out)
		}
		return out
	}
	created := post("/sessions", spec, http.StatusCreated)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("create reply without id: %v", created)
	}
	post("/sessions/"+id+"/play", fmt.Appendf(nil, `{"rounds":%d}`, rounds), http.StatusOK)
	snap := post("/sessions/"+id+"/snapshot", nil, http.StatusOK)
	digest, _ := snap["digest"].(string)
	r, _ := snap["rounds"].(float64)
	return digest, uint64(r)
}

// TestStreamHammer drives the hub from many goroutines over several
// connections while HTTP plays hit the same authority — the -race build
// is the real assertion: session ownership must hold when the shard
// loops, the SSE path, and direct HTTP plays interleave.
func TestStreamHammer(t *testing.T) {
	a, srv, shared := wsTestServer(t, ga.WithShards(4))

	// A shared session driven concurrently over both transports.
	sharedSpec := []byte(`{"id":"shared","game":"pd","seed":1}`)
	sharedRef, _, err := shared.Create(sharedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.Subscribe(sharedRef, func(ev wire.Event, lag uint64) {}); err != nil {
		t.Fatal(err)
	}

	clients := make([]*hub.Client, 3)
	for i := range clients {
		c, err := hub.Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// WS workers: session lifecycle churn across all shards.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < 4; i++ {
				id := fmt.Sprintf("hammer-%d-%d", w, i)
				spec := fmt.Appendf(nil, `{"id":%q,"game":"pd","seed":%d}`, id, w*100+i+1)
				ref, _, err := c.Create(spec)
				if err != nil {
					fail("create %s: %v", id, err)
					return
				}
				if err := c.Subscribe(ref, func(ev wire.Event, lag uint64) {}); err != nil {
					fail("subscribe %s: %v", id, err)
					return
				}
				if out, err := c.Play(ref, 3); err != nil || out.Completed != 3 {
					fail("play %s: %+v %v", id, out, err)
					return
				}
				if _, err := c.Stats(ref); err != nil {
					fail("stats %s: %v", id, err)
					return
				}
				if err := c.CloseSession(ref); err != nil {
					fail("close %s: %v", id, err)
					return
				}
			}
		}(w)
	}

	// Two more WS workers attach to the shared session and play it.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			ref, err := c.Attach("shared")
			if err != nil {
				fail("attach shared: %v", err)
				return
			}
			for i := 0; i < 8; i++ {
				if _, err := c.Play(ref, 1); err != nil {
					fail("shared ws play: %v", err)
					return
				}
			}
		}(w)
	}

	// HTTP workers pound the same shared session through the JSON API.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(srv.URL+"/sessions/shared/play",
					"application/json", strings.NewReader(`{"rounds":1}`))
				if err != nil {
					fail("http play: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("http play status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Every transport saw the same session: 16 WS + 16 HTTP shared plays
	// plus the initial subscribe must be visible in one coherent count.
	st, err := shared.Stats(sharedRef)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 32 {
		t.Fatalf("shared session rounds = %d, want 32", st.Rounds)
	}

	// Closing the authority under a live hub must not hang: the shard
	// loops drain, then connections tear down.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Play(sharedRef, 1); err == nil {
		t.Fatal("play succeeded after authority close")
	}
}
