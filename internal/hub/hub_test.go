package hub

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gameauthority/internal/core"
	"gameauthority/internal/game"
	"gameauthority/internal/wire"
)

// fakeHandle is a minimal Handle: deterministic plays, observer fan-out,
// canned stats/snapshot. It lets the hub tests cover the full command
// surface without standing up a real authority.
type fakeHandle struct {
	id string

	mu      sync.Mutex
	rounds  int
	history []core.RoundResult
	seq     uint64
	obs     map[int]core.Observer
	nextOb  int

	playErr  error // when set, a play fails without advancing...
	failFrom int   // ...once the session reaches this round

	playNCalls []int // the n of every PlayN call, in order
}

func newFakeHandle(id string) *fakeHandle {
	return &fakeHandle{id: id, obs: map[int]core.Observer{}}
}

func (h *fakeHandle) ID() string { return h.id }

func (h *fakeHandle) PlayN(_ context.Context, n int, sink func(core.RoundResult) error) (core.RoundResult, error) {
	h.mu.Lock()
	h.playNCalls = append(h.playNCalls, n)
	h.mu.Unlock()
	var last core.RoundResult
	for i := 0; i < n; i++ {
		res, err := h.play()
		if err != nil {
			return last, err
		}
		last = res
		if sink != nil {
			if err := sink(res); err != nil {
				return last, err
			}
		}
	}
	return last, nil
}

func (h *fakeHandle) play() (core.RoundResult, error) {
	h.mu.Lock()
	if err := h.playErr; err != nil && h.rounds >= h.failFrom {
		h.mu.Unlock()
		return core.RoundResult{}, err
	}
	r := h.rounds
	h.rounds++
	h.seq++
	seq := h.seq
	var watchers []core.Observer
	for _, o := range h.obs {
		watchers = append(watchers, o)
	}
	res := core.RoundResult{
		Round:   r,
		Outcome: game.Profile{r % 2, 1},
		Costs:   []float64{1, 2},
	}
	h.history = append(h.history, res)
	h.mu.Unlock()
	for _, o := range watchers {
		o.OnEvent(core.Event{
			Kind: core.EventPlay, Round: r, Seq: seq,
			Outcome: res.Outcome, Costs: res.Costs,
		})
	}
	return res, nil
}

func (h *fakeHandle) ResultAt(round int) (core.RoundResult, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if round < 0 || round >= len(h.history) {
		return core.RoundResult{}, false
	}
	return h.history[round], true
}

func (h *fakeHandle) Subscribe(obs core.Observer) func() {
	h.mu.Lock()
	id := h.nextOb
	h.nextOb++
	h.obs[id] = obs
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		delete(h.obs, id)
		h.mu.Unlock()
	}
}

func (h *fakeHandle) Stats() core.SessionStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return core.SessionStats{
		Kind: core.KindPure, Players: 2, Rounds: h.rounds,
		CumulativeCost: []float64{float64(h.rounds), 2 * float64(h.rounds)},
		Excluded:       []bool{false, false},
	}
}

func (h *fakeHandle) Snapshot() (core.SessionSnapshot, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return core.SessionSnapshot{Rounds: h.rounds, Digest: fmt.Sprintf("digest-%d", h.rounds)}, true, nil
}

type fakeBackend struct {
	mu       sync.Mutex
	sessions map[string]*fakeHandle

	// Fault hooks, set before the traffic they shape: Attach waits for
	// attachGate to close, and afterRemove runs once a Remove has applied
	// and supplies what it reports.
	attachGate  chan struct{}
	afterRemove func() error
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{sessions: map[string]*fakeHandle{}}
}

func (b *fakeBackend) Create(spec []byte) (Handle, error) {
	var req struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(spec, &req); err != nil || req.ID == "" {
		return nil, Coded{Code: wire.CodeBadRequest, Err: fmt.Errorf("bad spec: %v", err)}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.sessions[req.ID]; ok {
		return nil, Coded{Code: wire.CodeExists, Err: errors.New("session exists")}
	}
	h := newFakeHandle(req.ID)
	b.sessions[req.ID] = h
	return h, nil
}

func (b *fakeBackend) Attach(_ context.Context, id string) (Handle, error) {
	if b.attachGate != nil {
		<-b.attachGate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if h, ok := b.sessions[id]; ok {
		return h, nil
	}
	return nil, Coded{Code: wire.CodeNotFound, Err: errors.New("no such session")}
}

func (b *fakeBackend) Remove(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.sessions[id]; !ok {
		return Coded{Code: wire.CodeNotFound, Err: errors.New("no such session")}
	}
	delete(b.sessions, id)
	if b.afterRemove != nil {
		return b.afterRemove()
	}
	return nil
}

// newHubClient stands up a hub over a fake backend and dials it.
func newHubClient(t *testing.T) (*fakeBackend, *Client) {
	t.Helper()
	backend := newFakeBackend()
	shards := NewShards(2)
	t.Cleanup(shards.Close)
	srv := httptest.NewServer(New(backend, Options{Shards: shards}))
	t.Cleanup(srv.Close)
	client, err := Dial(srv.URL)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return backend, client
}

func TestHubCommandSurface(t *testing.T) {
	_, client := newHubClient(t)

	ref, id, err := client.Create([]byte(`{"id":"s1"}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if id != "s1" || ref == 0 {
		t.Fatalf("Create → ref %d id %q", ref, id)
	}

	out, err := client.Play(ref, 3)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if out.Completed != 3 || out.LastRound != 2 {
		t.Fatalf("Play → %+v", out)
	}

	st, err := client.Stats(ref)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Rounds != 3 || st.Players != 2 || len(st.Excluded) != 0 {
		t.Fatalf("Stats → %+v", st)
	}

	snap, err := client.Snapshot(ref)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Rounds != 3 || snap.Digest != "digest-3" || !snap.Persisted {
		t.Fatalf("Snapshot → %+v", snap)
	}

	// A second connection attaches to the same session by ID.
	ref2, err := client.Attach("s1")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := client.Play(ref2, 1); err != nil {
		t.Fatalf("Play via attached ref: %v", err)
	}

	// Duplicate create surfaces the backend's code.
	if _, _, err := client.Create([]byte(`{"id":"s1"}`)); code(err) != wire.CodeExists {
		t.Fatalf("duplicate Create err = %v", err)
	}
	if _, _, err := client.Create([]byte(`not json`)); code(err) != wire.CodeBadRequest {
		t.Fatalf("bad spec err = %v", err)
	}
	if _, err := client.Attach("ghost"); code(err) != wire.CodeNotFound {
		t.Fatalf("Attach ghost err = %v", err)
	}

	if err := client.CloseSession(ref); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, err := client.Play(ref, 1); code(err) != wire.CodeNotFound {
		t.Fatalf("Play after close err = %v", err)
	}
	// The attached ref is connection-local state pointing at a removed
	// session: commands on it still resolve the ref but the backend is
	// authoritative — closing it again reports not-found.
	if err := client.CloseSession(ref2); code(err) != wire.CodeNotFound {
		t.Fatalf("CloseSession on removed session err = %v", err)
	}
}

// code extracts the wire code from a client-side RemoteError.
func code(err error) uint64 {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return wire.CodeOK
}

func TestHubSubscribe(t *testing.T) {
	_, client := newHubClient(t)
	ref, _, err := client.Create([]byte(`{"id":"sub"}`))
	if err != nil {
		t.Fatal(err)
	}

	events := make(chan wire.Event, 16)
	if err := client.Subscribe(ref, func(ev wire.Event, lag uint64) {
		// Event slices are valid only during the handler call; copy them
		// before handing the event to another goroutine.
		ev.Outcome = append([]int(nil), ev.Outcome...)
		ev.Costs = append([]float64(nil), ev.Costs...)
		events <- ev
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := client.Subscribe(ref, nil); err == nil {
		t.Fatal("double Subscribe succeeded")
	}

	if _, err := client.Play(ref, 2); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 2; want++ {
		select {
		case ev := <-events:
			if int(ev.Kind) != int(core.EventPlay) || ev.Round != want {
				t.Fatalf("event %d = %+v", want, ev)
			}
			if len(ev.Outcome) != 2 || ev.Outcome[0] != want%2 {
				t.Fatalf("event %d outcome = %v", want, ev.Outcome)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", want)
		}
	}

	if err := client.Unsubscribe(ref); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if _, err := client.Play(ref, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("event after unsubscribe: %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}

	// A new subscription is a new delta stream: its first event is whole,
	// even where it repeats the last event the old subscription carried.
	if err := client.Subscribe(ref, func(ev wire.Event, lag uint64) {
		ev.Outcome = append([]int(nil), ev.Outcome...)
		ev.Costs = append([]float64(nil), ev.Costs...)
		events <- ev
	}); err != nil {
		t.Fatalf("re-Subscribe: %v", err)
	}
	if _, err := client.Play(ref, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Round != 3 || len(ev.Outcome) != 2 || ev.Outcome[0] != 1 || len(ev.Costs) != 2 {
			t.Fatalf("first event of the new subscription = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event after re-subscribing")
	}
}

// TestHubVersionMismatch: a client announcing an unknown protocol version
// is refused with a wire error, not silently garbled.
func TestHubVersionMismatch(t *testing.T) {
	backend := newFakeBackend()
	shards := NewShards(1)
	t.Cleanup(shards.Close)
	srv := httptest.NewServer(New(backend, Options{Shards: shards}))
	t.Cleanup(srv.Close)

	ws := rawDial(t, srv.URL)
	if err := ws.WriteMessage(opBinary, wire.AppendHello(nil, 99, 0)); err != nil {
		t.Fatal(err)
	}
	_, payload, err := ws.ReadMessage()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	d := wire.NewDecoder(payload)
	if typ := d.Byte(); typ != wire.MsgError {
		t.Fatalf("reply type %#x", typ)
	}
	m, err := wire.DecodeError(&d)
	if err != nil || m.Code != wire.CodeBadRequest {
		t.Fatalf("error reply = %+v (%v)", m, err)
	}
}

// rawDial opens a WSConn to a hub URL without the Client's Hello/Welcome
// exchange, for protocol-level tests.
func rawDial(t *testing.T, base string) *WSConn {
	t.Helper()
	host := base[len("http://"):]
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ws, err := clientHandshake(conn, host, "/ws", 5*time.Second)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return ws
}
