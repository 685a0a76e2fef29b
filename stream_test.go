package gameauthority_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
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

// wsTestServer stands up an authority behind a full NewServer and dials
// one streaming client against it.
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

			// HTTP JSON transport, on a durable host: {"rounds":k} and ?n=k
			// are two spellings of one request, so the two answer with the
			// same bytes and journal the same record.
			var httpReply, httpWAL [2][]byte
			for i, play := range []struct{ query, body string }{
				{"", fmt.Sprintf(`{"rounds":%d}`, rounds)},
				{fmt.Sprintf("?n=%d", rounds), ""},
			} {
				st := ga.NewMemStore()
				a, srv := storeServer(t, st)
				defer a.Close()
				reply, digest, played := playOverHTTP(t, srv.URL, body, play.query, play.body)
				if err := invariant.CheckTwinState(want, invariant.State{Rounds: played, Digest: digest}); err != nil {
					t.Errorf("HTTP %s%s: %v", play.query, play.body, err)
				}
				httpReply[i] = reply
				_, httpWAL[i] = journalOf(t, st, "", "det")
			}
			if !bytes.Equal(httpReply[0], httpReply[1]) {
				t.Errorf("HTTP replies differ:\n%s\n%s", httpReply[0], httpReply[1])
			}
			if !bytes.Equal(httpWAL[0], httpWAL[1]) {
				t.Errorf("HTTP journals differ:\n%s\n%s", httpWAL[0], httpWAL[1])
			}

			// Binary streaming transport.
			_, _, client := wsTestServer(t)
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
			if err := invariant.CheckTwinState(want, invariant.State{Rounds: int(snap.Rounds), Digest: snap.Digest}); err != nil {
				t.Errorf("WS: %v", err)
			}

			// The reserved opcode 0x0A is a protocol-v1 peer's second
			// spelling of MsgPlay: hand-encoded, it draws the same reply
			// frame and leaves the same digest as the frame Client.Play
			// sends.
			var wsReply [2][]byte
			for i, opcode := range []byte{wire.MsgPlay, 0x0A} {
				_, srv, _ := wsTestServer(t)
				raw := dialRawWS(t, srv.URL)
				raw.roundTrip(wire.AppendHello(nil, wire.Version, 0))
				raw.roundTrip(wire.AppendCreate(nil, 1, body))
				frame := wire.AppendPlay(nil, 2, 1, rounds, 0)
				frame[0] = opcode
				wsReply[i] = raw.roundTrip(frame)
				d := wire.NewDecoder(raw.roundTrip(wire.AppendRefReq(nil, wire.MsgSnapshot, 3, 1))[1:])
				got, err := wire.DecodeSnapshotReply(&d)
				if err != nil {
					t.Fatalf("opcode %#x: snapshot reply: %v", opcode, err)
				}
				if err := invariant.CheckTwinState(want, invariant.State{Rounds: int(got.Rounds), Digest: got.Digest}); err != nil {
					t.Errorf("WS opcode %#x: %v", opcode, err)
				}
			}
			if wsReply[0][0] != wire.MsgResults || !bytes.Equal(wsReply[0], wsReply[1]) {
				t.Errorf("WS reply frames differ:\n%x\n%x", wsReply[0], wsReply[1])
			}
		})
	}
}

// rawWS is the least of RFC 6455 a test needs to put a hand-encoded frame
// on /ws: one unmasked binary message out, one back.
type rawWS struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRawWS(t *testing.T, base string) *rawWS {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprint(conn, "GET /ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("ws upgrade: %v, %v", resp, err)
	}
	return &rawWS{t, conn, br}
}

func (r *rawWS) roundTrip(msg []byte) []byte {
	r.t.Helper()
	if len(msg) > 125 {
		r.t.Fatalf("rawWS: %d-byte message needs an extended length", len(msg))
	}
	if _, err := r.conn.Write(append([]byte{0x82, byte(len(msg))}, msg...)); err != nil {
		r.t.Fatal(err)
	}
	var hdr [2]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		r.t.Fatal(err)
	}
	n := int(hdr[1])
	if n == 126 {
		var ext [2]byte
		if _, err := io.ReadFull(r.br, ext[:]); err != nil {
			r.t.Fatal(err)
		}
		n = int(binary.BigEndian.Uint16(ext[:]))
	}
	reply := make([]byte, n)
	if _, err := io.ReadFull(r.br, reply); err != nil {
		r.t.Fatal(err)
	}
	return reply
}

// playOverHTTP creates a session from spec, plays it with one request
// (query and body as given), and returns the play's response body, the
// snapshot digest and the round count.
func playOverHTTP(t *testing.T, base string, spec []byte, query, body string) ([]byte, string, int) {
	t.Helper()
	post := func(path, body string, want int) []byte {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d (%s, %v)", path, resp.StatusCode, want, out, err)
		}
		return out
	}
	var created struct{ ID string }
	if err := json.Unmarshal(post("/sessions", string(spec), http.StatusCreated), &created); err != nil || created.ID == "" {
		t.Fatalf("create reply without id: %v", err)
	}
	reply := post("/sessions/"+created.ID+"/play"+query, body, http.StatusOK)
	var snap struct {
		Digest string
		Rounds int
	}
	if err := json.Unmarshal(post("/sessions/"+created.ID+"/snapshot", "", http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	return reply, snap.Digest, snap.Rounds
}

// TestStreamHammer drives the hub from many goroutines over several
// connections while HTTP plays hit the same authority — the -race build
// is the real assertion: the session's own locks must order its plays
// when the /ws shard loops, the SSE path, and direct HTTP plays (on their
// request goroutines) interleave on one session.
func TestStreamHammer(t *testing.T) {
	a, srv, shared := wsTestServer(t)

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
