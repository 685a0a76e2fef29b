package hub

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameauthority/internal/wire"
)

// killSwitch records every raw connection a client dials (via WrapConn)
// so tests can cut them mid-stream, simulating a dropped network.
type killSwitch struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (k *killSwitch) wrap(c net.Conn) net.Conn {
	k.mu.Lock()
	k.conns = append(k.conns, c)
	k.mu.Unlock()
	return c
}

func (k *killSwitch) killAll() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.conns {
		c.Close()
	}
	k.conns = k.conns[:0]
}

// newHealingClient stands up a hub over a fake backend and dials it with
// reconnect enabled and fast backoff.
func newHealingClient(t *testing.T, opt DialOptions) (*fakeBackend, *killSwitch, *Client) {
	t.Helper()
	backend := newFakeBackend()
	shards := NewShards(2)
	t.Cleanup(shards.Close)
	srv := httptest.NewServer(New(backend, Options{Shards: shards}))
	t.Cleanup(srv.Close)
	ks := &killSwitch{}
	opt.WrapConn = ks.wrap
	if opt.BackoffMin == 0 {
		opt.BackoffMin = time.Millisecond
	}
	if opt.BackoffMax == 0 {
		opt.BackoffMax = 10 * time.Millisecond
	}
	client, err := DialWith(srv.URL, opt)
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return backend, ks, client
}

// TestClientReconnectResume is the self-healing happy path: a client
// with live sessions and a subscription loses its connection, reconnects,
// re-attaches by id, resumes the event stream, and keeps playing with no
// round skipped or repeated.
func TestClientReconnectResume(t *testing.T) {
	_, ks, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 7})

	ref, id, err := client.Create([]byte(`{"id":"heal-1"}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if id != "heal-1" {
		t.Fatalf("id = %q", id)
	}
	var seqMu sync.Mutex
	var seqs []uint64
	if err := client.Subscribe(ref, func(ev wire.Event, lag uint64) {
		seqMu.Lock()
		seqs = append(seqs, ev.Seq)
		seqMu.Unlock()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	for r := 0; r < 3; r++ {
		out, err := client.Play(ref, 1)
		if err != nil {
			t.Fatalf("Play %d: %v", r, err)
		}
		if out.LastRound != r {
			t.Fatalf("round %d acknowledged as %d", r, out.LastRound)
		}
	}

	ks.killAll()

	// Commands issued while the connection is down retry transparently.
	st, err := client.Stats(ref)
	if err != nil {
		t.Fatalf("Stats across reconnect: %v", err)
	}
	if st.Rounds != 3 {
		t.Fatalf("Stats.Rounds = %d, want 3", st.Rounds)
	}
	for r := 3; r < 6; r++ {
		out, err := client.Play(ref, 1)
		if err != nil {
			t.Fatalf("Play %d after cut: %v", r, err)
		}
		if out.LastRound != r {
			t.Fatalf("after reconnect: round %d acknowledged as %d", r, out.LastRound)
		}
	}
	snap, err := client.Snapshot(ref)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Rounds != 6 {
		t.Fatalf("snapshot rounds = %d, want 6", snap.Rounds)
	}

	cc := client.Counters()
	if cc.Reconnects == 0 {
		t.Fatal("no reconnect counted")
	}
	if cc.ResumedSubscriptions == 0 {
		t.Fatal("no resumed subscription counted")
	}

	// The event stream stays strictly monotone across the cut (events in
	// flight during the kill may be lost; they must not repeat).
	deadline := time.Now().Add(2 * time.Second)
	for {
		seqMu.Lock()
		n := len(seqs)
		seqMu.Unlock()
		if n >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	if len(seqs) == 0 {
		t.Fatal("no events delivered")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("event seq regressed: %d after %d", seqs[i], seqs[i-1])
		}
	}

	if err := client.Unsubscribe(ref); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if err := client.CloseSession(ref); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
}

// TestClientPlayDedup pins the watermark protocol: when the server is
// ahead of the client (the original play applied but its ack was lost),
// a retried play returns the orphaned round as a deduplicated replay
// instead of double-playing, and plays only the remainder fresh.
func TestClientPlayDedup(t *testing.T) {
	for _, retry := range []int{1, 3} {
		t.Run(fmt.Sprintf("retry-%d-rounds", retry), func(t *testing.T) {
			backend, _, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 3})
			ref, id, err := client.Create([]byte(`{"id":"dedup-1"}`))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if _, err := client.Play(ref, 2); err != nil {
				t.Fatalf("Play: %v", err)
			}

			// Advance the session behind the client's back: the server is
			// now one round ahead, exactly the state a lost ack leaves.
			backend.mu.Lock()
			h := backend.sessions[id]
			backend.mu.Unlock()
			if _, err := h.PlayN(context.Background(), 1, nil); err != nil {
				t.Fatal(err)
			}

			out, err := client.Play(ref, retry)
			if err != nil {
				t.Fatalf("retried Play: %v", err)
			}
			if out.Completed != retry || out.Deduped != 1 {
				t.Fatalf("outcome = %+v, want %d completed with 1 deduped", out, retry)
			}
			if want := 1 + retry; out.LastRound != want {
				t.Fatalf("last round %d, want %d", out.LastRound, want)
			}
			if cc := client.Counters(); cc.DedupedRounds != 1 {
				t.Fatalf("DedupedRounds = %d, want 1", cc.DedupedRounds)
			}
			// The next play runs fresh from the reconciled watermark.
			out, err = client.Play(ref, 1)
			if err != nil || out.LastRound != 2+retry || out.Deduped != 0 {
				t.Fatalf("follow-up play = %+v, %v", out, err)
			}
		})
	}
}

// TestClientSubscribeRebindWins: the connection dies after Subscribe
// registered its handler and before its first subscribe frame, so the
// reconnect's rebind subscribes on the handler's behalf and the frame is
// refused with CodeExists. The subscription is live and must stay so.
func TestClientSubscribeRebindWins(t *testing.T) {
	backend, ks, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 9})
	ref, _, err := client.Create([]byte(`{"id":"sub-race"}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Hold the rebind inside its attach until the handler is registered.
	gate := make(chan struct{})
	backend.attachGate = gate
	ks.killAll()

	events := make(chan int, 8)
	subscribed := make(chan error, 1)
	go func() {
		subscribed <- client.Subscribe(ref, func(ev wire.Event, _ uint64) { events <- ev.Round })
	}()
	s := client.session(ref)
	for registered := false; !registered; time.Sleep(time.Millisecond) {
		client.mu.Lock()
		registered = s.sub != nil
		client.mu.Unlock()
	}
	close(gate)
	if err := <-subscribed; err != nil {
		t.Fatalf("Subscribe after the rebind subscribed for it: %v", err)
	}
	if _, err := client.Play(ref, 1); err != nil {
		t.Fatalf("Play: %v", err)
	}
	select {
	case round := <-events:
		if round != 0 {
			t.Fatalf("event for round %d, want 0", round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler was dropped: no event for a play on a live subscription")
	}
}

// TestClientCloseSessionLanded: a close that landed is done, whatever
// became of its ack. Cut, the reconnect's re-attach finds the session
// gone inside the same call; reported as failed, the caller's retry is a
// fresh call that finds its ref unknown. Both are what was asked for.
func TestClientCloseSessionLanded(t *testing.T) {
	backend, ks, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 11})
	unavailable := Coded{Code: wire.CodeUnavailable, Err: errors.New("ledger delete failed")}
	for _, tc := range []struct {
		id      string
		after   func() error
		attempt []uint64 // the code each CloseSession call returns; 0 is success
	}{
		{"ack-cut", func() error { ks.killAll(); return nil }, []uint64{0}},
		{"reported-failed", func() error { return unavailable }, []uint64{wire.CodeUnavailable, 0}},
	} {
		ref, id, err := client.Create([]byte(`{"id":"` + tc.id + `"}`))
		if err != nil {
			t.Fatalf("%s: Create: %v", tc.id, err)
		}
		backend.afterRemove = tc.after
		for i, want := range tc.attempt {
			err := client.CloseSession(ref)
			var re *RemoteError
			if got := errors.As(err, &re); (want == 0) != (err == nil) || (got && re.Code != want) {
				t.Fatalf("%s: CloseSession call %d = %v, want code %d", tc.id, i, err, want)
			}
		}
		backend.mu.Lock()
		_, hosted := backend.sessions[id]
		backend.mu.Unlock()
		if hosted || client.session(ref) != nil {
			t.Fatalf("%s: session still known after CloseSession", tc.id)
		}
	}
}

// TestClientMidFrameDisconnect covers the plain (non-reconnect) client: a
// connection cut during pipelined round trips fails the in-flight
// commands and poisons the client permanently.
func TestClientMidFrameDisconnect(t *testing.T) {
	_, ks, client := newHealingClient(t, DialOptions{})
	ref, _, err := client.Create([]byte(`{"id":"cut-1"}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if _, err := client.Play(ref, 1); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	ks.killAll()
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("pipelined play %d did not fail", i)
		}
		if errors.Is(err, ErrConnLost) {
			t.Fatalf("plain client leaked retryable error: %v", err)
		}
	}
	// The client is closed for good now.
	if _, _, err := client.Create([]byte(`{"id":"cut-2"}`)); err == nil {
		t.Fatal("create on a dead plain client succeeded")
	}
}

// TestClientReattachFailure: when a session disappears server-side while
// the client is disconnected, the reconnect re-attach records the typed
// refusal on that session — its commands fail fast with the server's
// error while other sessions heal normally.
func TestClientReattachFailure(t *testing.T) {
	backend, ks, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 11})
	refGone, idGone, err := client.Create([]byte(`{"id":"gone-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	refLive, _, err := client.Create([]byte(`{"id":"live-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	delete(backend.sessions, idGone)
	backend.mu.Unlock()
	ks.killAll()

	// The surviving session heals.
	if _, err := client.Play(refLive, 1); err != nil {
		t.Fatalf("surviving session: %v", err)
	}
	// The removed one reports the server's refusal, typed.
	_, err = client.Play(refGone, 1)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeNotFound {
		t.Fatalf("vanished session error = %v, want CodeNotFound", err)
	}
	if re.Error() == "" {
		t.Fatal("empty RemoteError message")
	}
	if err := client.Subscribe(refGone, func(wire.Event, uint64) {}); err == nil {
		t.Fatal("subscribe on vanished session succeeded")
	}
}

// TestClientHandshakeRejection: a server that is not a hub rejects the
// upgrade and the dial fails cleanly.
func TestClientHandshakeRejection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer srv.Close()
	if _, err := Dial(srv.URL); err == nil {
		t.Fatal("dial of a non-hub server succeeded")
	}
}

// TestClientHandshakeTimeout: a listener that accepts and then stalls
// must not hang the dial past the handshake deadline.
func TestClientHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and say nothing
		}
	}()
	start := time.Now()
	_, err = DialWith("ws://"+ln.Addr().String()+"/ws", DialOptions{HandshakeTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("dial of a stalled server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("handshake timeout took %v", d)
	}
}

// muteConn passes writes through but, once muted, blackholes reads until
// the connection is closed — a half-open link only the keepalive probe
// can detect.
type muteConn struct {
	net.Conn
	muted atomic.Bool
	dead  chan struct{}
	once  sync.Once
}

func (m *muteConn) Read(b []byte) (int, error) {
	n, err := m.Conn.Read(b)
	if m.muted.Load() {
		// Swallow whatever arrived (even a reply already in flight when
		// the mute flipped) and stall until the connection is torn down.
		<-m.dead
		return 0, net.ErrClosed
	}
	return n, err
}

func (m *muteConn) Close() error {
	m.once.Do(func() { close(m.dead) })
	return m.Conn.Close()
}

// TestClientKeepaliveKillsSilentConn: after the link goes half-open the
// client pings, hears nothing, and tears the connection down instead of
// hanging forever.
func TestClientKeepaliveKillsSilentConn(t *testing.T) {
	backend := newFakeBackend()
	shards := NewShards(1)
	t.Cleanup(shards.Close)
	srv := httptest.NewServer(New(backend, Options{Shards: shards}))
	t.Cleanup(srv.Close)

	var mu sync.Mutex
	var conns []*muteConn
	client, err := DialWith(srv.URL, DialOptions{
		PingInterval: 20 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn {
			mc := &muteConn{Conn: c, dead: make(chan struct{})}
			mu.Lock()
			conns = append(conns, mc)
			mu.Unlock()
			return mc
		},
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	ref, _, err := client.Create([]byte(`{"id":"mute-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, c := range conns {
		c.muted.Store(true)
	}
	mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := client.Play(ref, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("play on a half-open connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("keepalive did not kill the half-open connection")
	}
}

// TestClientBadURL covers dial argument validation.
func TestClientBadURL(t *testing.T) {
	for _, raw := range []string{"://nope", "ftp://host/ws", "http://"} {
		if _, err := Dial(raw); err == nil {
			t.Fatalf("Dial(%q) succeeded", raw)
		}
	}
}

// TestClientUnknownRef covers command validation against refs that were
// never issued.
func TestClientUnknownRef(t *testing.T) {
	_, _, client := newHealingClient(t, DialOptions{Reconnect: true})
	var re *RemoteError
	if _, err := client.Play(999, 1); !errors.As(err, &re) || re.Code != wire.CodeNotFound {
		t.Fatalf("Play(unknown) = %v", err)
	}
	if _, err := client.Stats(999); !errors.As(err, &re) {
		t.Fatalf("Stats(unknown) = %v", err)
	}
	if _, err := client.Snapshot(999); !errors.As(err, &re) {
		t.Fatalf("Snapshot(unknown) = %v", err)
	}
	if err := client.Subscribe(999, func(wire.Event, uint64) {}); !errors.As(err, &re) {
		t.Fatalf("Subscribe(unknown) = %v", err)
	}
	if err := client.Unsubscribe(999); !errors.As(err, &re) {
		t.Fatalf("Unsubscribe(unknown) = %v", err)
	}
	if err := client.CloseSession(999); !errors.As(err, &re) {
		t.Fatalf("CloseSession(unknown) = %v", err)
	}
}

// TestClientReconnectGivesUp: MaxAttempts bounds the redial loop; when
// the server is gone for good the client closes with the dial error and
// pending commands fail permanently.
func TestClientReconnectGivesUp(t *testing.T) {
	backend := newFakeBackend()
	shards := NewShards(1)
	t.Cleanup(shards.Close)
	srv := httptest.NewServer(New(backend, Options{Shards: shards}))
	ks := &killSwitch{}
	client, err := DialWith(srv.URL, DialOptions{
		Reconnect:   true,
		MaxAttempts: 2,
		BackoffMin:  time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		WrapConn:    ks.wrap,
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	ref, _, err := client.Create([]byte(`{"id":"doom-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // server gone for good
	ks.killAll()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = client.Play(ref, 1); err != nil && !errors.Is(err, ErrConnLost) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never gave up reconnecting")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if errors.Is(err, ErrConnLost) {
		t.Fatalf("terminal error is still retryable: %v", err)
	}
}

// TestClientPlayPartialBatch: a batch that fails mid-way delivers the
// completed prefix alongside the typed error, and the watermark reflects
// it so the next play resumes exactly where the failure hit.
func TestClientPlayPartialBatch(t *testing.T) {
	backend, _, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 13})
	ref, id, err := client.Create([]byte(`{"id":"partial-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	h := backend.sessions[id]
	h.playErr = Coded{Code: wire.CodeInternal, Err: errors.New("blown gasket")}
	h.failFrom = 2
	backend.mu.Unlock()

	out, err := client.Play(ref, 5)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeInternal {
		t.Fatalf("partial batch error = %v, want CodeInternal", err)
	}
	if out.Completed != 2 || out.LastRound != 1 {
		t.Fatalf("partial outcome = %+v, want rounds 0-1 delivered", out)
	}

	backend.mu.Lock()
	h.playErr = nil
	backend.mu.Unlock()
	out, err = client.Play(ref, 1)
	if err != nil || out.LastRound != 2 {
		t.Fatalf("resume after partial batch = %+v, %v", out, err)
	}
}

// TestClientSurvivesRepeatedCuts hammers the reconnect machinery: the
// connection is cut over and over while sessions play, and every round
// must still be acknowledged exactly once, in order.
func TestClientSurvivesRepeatedCuts(t *testing.T) {
	_, ks, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 17})
	const sessions = 4
	refs := make([]uint64, sessions)
	for i := range refs {
		ref, _, err := client.Create([]byte(fmt.Sprintf(`{"id":"storm-%d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		if err := client.Subscribe(ref, func(wire.Event, uint64) {}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var cutter sync.WaitGroup
	cutter.Add(1)
	go func() {
		defer cutter.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				ks.killAll()
			}
		}
	}()
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i, ref := range refs {
		wg.Add(1)
		go func(i int, ref uint64) {
			defer wg.Done()
			for r := 0; r < 25; {
				out, err := client.Play(ref, 1)
				if out.Completed > 0 {
					r += out.Completed
					if out.LastRound != r-1 {
						errCh <- fmt.Errorf("session %d: round %d acknowledged as %d", i, r-1, out.LastRound)
						return
					}
				}
				if err != nil && !errors.Is(err, ErrConnLost) {
					errCh <- fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}(i, ref)
	}
	wg.Wait()
	close(stop)
	cutter.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, ref := range refs {
		st, err := client.Stats(ref)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != 25 {
			t.Fatalf("ref %d converged at %d rounds, want 25", ref, st.Rounds)
		}
	}
}

// TestCodedUnwrap pins the error-chain plumbing servers rely on to map
// backend errors to wire codes.
func TestCodedUnwrap(t *testing.T) {
	base := errors.New("inner cause")
	err := Coded{Code: wire.CodeInternal, Err: base}
	if !errors.Is(err, base) {
		t.Fatal("Coded does not unwrap to its cause")
	}
	if err.Error() == "" {
		t.Fatal("empty Coded message")
	}
}

// TestClientCreateAfterCutAttach: the documented Create recovery — when a
// create's ack is lost the caller re-attaches by id — lands on the same
// session.
func TestClientCreateAfterCutAttach(t *testing.T) {
	_, _, client := newHealingClient(t, DialOptions{Reconnect: true, Seed: 5})
	_, id, err := client.Create([]byte(`{"id":"att-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	// A second create for the same id reports CodeExists...
	_, _, err = client.Create([]byte(`{"id":"att-1"}`))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeExists {
		t.Fatalf("duplicate create = %v, want CodeExists", err)
	}
	// ...and Attach recovers a usable ref.
	ref, err := client.Attach(id)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := client.Play(ref, 1); err != nil {
		t.Fatalf("Play on attached ref: %v", err)
	}
}

// TestClientConcurrentPlaysOwnTheirResults: callers sharing one
// connection each get their own play's outcome. Each plays its own
// session with its own batch size, so a reply slot delivered to the wrong
// caller, or rewritten after delivery, shows as a wrong count or round;
// under -race, so does an outcome that still aliases the reader's scratch.
func TestClientConcurrentPlaysOwnTheirResults(t *testing.T) {
	_, client := newHubClient(t)
	const callers, plays = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		ref, _, err := client.Create([]byte(fmt.Sprintf(`{"id":"own-%d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, ref uint64) {
			defer wg.Done()
			batch := i + 1
			for p := 0; p < plays; p++ {
				out, err := client.Play(ref, batch)
				if err != nil {
					errs <- fmt.Errorf("caller %d, play %d: %w", i, p, err)
					return
				}
				if want := (p+1)*batch - 1; out.Completed != batch || out.LastRound != want || out.Deduped != 0 {
					errs <- fmt.Errorf("caller %d, play %d: %+v, want %d rounds ending at %d", i, p, out, batch, want)
					return
				}
			}
		}(i, ref)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientInFlightCallNotReused pins the reply-slot ownership rule: a
// call whose reply is in flight when its connection dies (the reader has
// taken it out of pending but not yet filled it) is not handed to a later
// request. Its waiter keeps it until the reply lands, returns that reply,
// and only then frees the slot.
func TestClientInFlightCallNotReused(t *testing.T) {
	c := &Client{done: make(chan struct{}), pending: make(map[uint64]*call)}
	conn := &clientConn{outbox: make(chan []byte, 1), down: make(chan struct{})}
	type result struct {
		rep reply
		err error
	}
	res := make(chan result, 1)
	go func() {
		rep, err := c.roundTripOn(conn, 1, []byte{wire.MsgPlay})
		res <- result{rep, err}
	}()
	<-conn.outbox // the command went out
	// The reader resolves request 1: it removes the call from pending...
	c.mu.Lock()
	inflight := c.pending[1]
	delete(c.pending, 1)
	c.mu.Unlock()
	// ...and before it fills the call, the connection dies.
	conn.err = errors.New("cut")
	close(conn.down)
	select {
	case r := <-res:
		t.Fatalf("waiter returned %+v, %v while its reply was in flight", r.rep, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	if later := c.pend(2); later == inflight {
		t.Fatal("a call with a reply in flight was handed to a later request")
	}
	inflight.rep = reply{out: PlayOutcome{Completed: 1, LastRound: 7}}
	inflight.done <- struct{}{}
	if r := <-res; r.err != nil || r.rep.out != (PlayOutcome{Completed: 1, LastRound: 7}) {
		t.Fatalf("waiter got %+v, %v; want the reply that was in flight", r.rep.out, r.err)
	}
	if c.pend(3) != inflight {
		t.Fatal("the answered call was not recycled")
	}
}
