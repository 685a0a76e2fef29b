package invariant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
)

// Ack is one acknowledged play request: how many rounds it completed and
// the round index of the last.
type Ack struct {
	Completed int
	Last      int
}

// State is where a session stands: its round count and verdict tallies,
// and the digest of everything that got it there.
type State struct {
	Rounds      int
	Fouls       int
	Convictions int
	Digest      string
}

// Player is one hosted session under drive, on any transport.
type Player interface {
	// Play plays n rounds as one request: one session lock, one WAL
	// record, one wire round trip.
	Play(ctx context.Context, n int) (Ack, error)
	State() (State, error)
	// Close removes the session from its host.
	Close() error
}

// Transport hosts sessions from their specs and hands back their players.
type Transport interface {
	Create(spec ga.CreateSessionRequest) (Player, error)
	Close() error
}

// --- In-process transport -----------------------------------------------------

// InProc hosts sessions directly on an Authority — the sharded registry
// and the play hot paths with no wire in between. Sessions are created
// from their specs, the translation POST /sessions performs, so on a
// store-backed authority they are journaled and CrashRecover can rebuild
// them.
type InProc struct {
	// Authority is the current host; CrashRecover replaces it.
	Authority *ga.Authority
	opts      []ga.AuthorityOption

	mu      sync.Mutex
	players []*inprocPlayer
}

// NewInProc builds the host from opts; with a WithStore among them the
// fleet is durable.
func NewInProc(opts ...ga.AuthorityOption) *InProc {
	return &InProc{Authority: ga.NewAuthority(opts...), opts: opts}
}

func (t *InProc) Create(spec ga.CreateSessionRequest) (Player, error) {
	h, err := t.Authority.CreateFromSpec(spec)
	if err != nil {
		return nil, err
	}
	return t.Adopt(h), nil
}

// Adopt wraps a session the caller hosted on t.Authority itself — the one
// composition a spec cannot express is a session built with options (a
// network adversary is a closure).
func (t *InProc) Adopt(h *ga.HostedSession) Player {
	p := &inprocPlayer{h: h, t: t}
	t.mu.Lock()
	t.players = append(t.players, p)
	t.mu.Unlock()
	return p
}

// CrashRecover kills the host and recovers a fresh one from its store
// (see the package-level CrashRecover), then points every player at its
// recovered session. No play may be in flight.
func (t *InProc) CrashRecover(ctx context.Context) (ga.RecoveryReport, error) {
	next, report, err := CrashRecover(ctx, t.Authority, t.opts...)
	if err != nil {
		return report, err
	}
	t.Authority = next
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.players {
		if p.h, err = next.Get(p.h.ID()); err != nil {
			return report, fmt.Errorf("session lost across the crash: %w", err)
		}
	}
	return report, nil
}

func (t *InProc) Close() error { return t.Authority.Close() }

type inprocPlayer struct {
	h *ga.HostedSession
	t *InProc
}

func (p *inprocPlayer) Play(ctx context.Context, n int) (Ack, error) {
	res, err := p.h.PlayN(ctx, n, nil)
	if err != nil {
		return Ack{}, err
	}
	return Ack{Completed: n, Last: res.Round}, nil
}

func (p *inprocPlayer) State() (State, error) { return StateOf(p.h), nil }

func (p *inprocPlayer) Close() error { return p.t.Authority.Remove(p.h.ID()) }

// --- HTTP transport -----------------------------------------------------------

// HTTP drives a gameauthd -serve instance over the JSON API, one POST per
// request, so latencies include the full wire round trip.
type HTTP struct {
	base   string
	client *http.Client
}

func NewHTTP(base string) *HTTP {
	// The default transport keeps 2 idle conns per host — a thousand
	// concurrent players would churn through ephemeral ports. Keep one
	// warm connection per in-flight session instead.
	inner := &http.Transport{
		MaxIdleConns:        2048,
		MaxIdleConnsPerHost: 2048,
	}
	return &HTTP{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Transport: inner, Timeout: 2 * time.Minute},
	}
}

func (t *HTTP) Create(spec ga.CreateSessionRequest) (Player, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := t.do(http.MethodPost, "/sessions", body, http.StatusCreated, nil); err != nil {
		return nil, err
	}
	return &httpPlayer{t: t, id: spec.ID}, nil
}

func (t *HTTP) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// do runs one request, checks the status (returning the server's error
// payload on mismatch), and decodes the reply into out when out is set.
func (t *HTTP) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s %s: status %d (want %d): %s",
			method, path, resp.StatusCode, want, strings.TrimSpace(string(payload)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	// Drain so the connection returns to the idle pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

type httpPlayer struct {
	t  *HTTP
	id string
}

func (p *httpPlayer) Play(_ context.Context, n int) (Ack, error) {
	path := fmt.Sprintf("/sessions/%s/play?n=%d", p.id, n)
	var reply struct {
		Results []struct {
			Round int `json:"round"`
		} `json:"results"`
	}
	if err := p.t.do(http.MethodPost, path, nil, http.StatusOK, &reply); err != nil {
		return Ack{}, err
	}
	if len(reply.Results) == 0 {
		return Ack{}, fmt.Errorf("POST %s: a 200 carrying no result", path)
	}
	return Ack{Completed: len(reply.Results), Last: reply.Results[len(reply.Results)-1].Round}, nil
}

func (p *httpPlayer) State() (State, error) {
	var snap struct {
		Rounds      int    `json:"rounds"`
		Fouls       int    `json:"fouls"`
		Convictions int    `json:"convictions"`
		Digest      string `json:"digest"`
	}
	if err := p.t.do(http.MethodPost, "/sessions/"+p.id+"/snapshot", nil, http.StatusOK, &snap); err != nil {
		return State{}, err
	}
	return State(snap), nil
}

func (p *httpPlayer) Close() error {
	return p.t.do(http.MethodDelete, "/sessions/"+p.id, nil, http.StatusNoContent, nil)
}

// --- WebSocket transport ------------------------------------------------------

// WS drives the /ws binary streaming endpoint: all sessions are
// multiplexed over a small fixed set of connections, so 100k+ concurrent
// sessions ride a few dozen sockets. Sessions are assigned to connections
// round-robin at create time and stay pinned (the ref is
// connection-local).
type WS struct {
	clients []*hub.Client
	next    atomic.Uint64
}

// NewWS dials conns connections to the server at base.
func NewWS(base string, conns int) (*WS, error) {
	t := &WS{clients: make([]*hub.Client, 0, conns)}
	for i := 0; i < conns; i++ {
		c, err := hub.Dial(base + "/ws")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("ws dial %d/%d: %w", i+1, conns, err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *WS) Create(spec ga.CreateSessionRequest) (Player, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	c := t.clients[int(t.next.Add(1))%len(t.clients)]
	ref, _, err := c.Create(body)
	if err != nil {
		return nil, err
	}
	return &WSPlayer{Client: c, Ref: ref}, nil
}

func (t *WS) Close() error {
	for _, c := range t.clients {
		c.Close()
	}
	return nil
}

// WSPlayer is a session bound to one client connection by ref. It is
// exported so a harness that dials its own clients (self-healing, fault
// wrapped) still reads acknowledgements and state the one way.
type WSPlayer struct {
	Client *hub.Client
	Ref    uint64
}

// Play returns the acknowledgement of whatever completed alongside the
// error: a self-healing client can deliver part of a request, replayed
// rounds included, before the connection fails it.
func (p *WSPlayer) Play(_ context.Context, n int) (Ack, error) {
	out, err := p.Client.Play(p.Ref, n)
	return Ack{Completed: out.Completed, Last: out.LastRound}, err
}

func (p *WSPlayer) State() (State, error) {
	st, err := p.Client.Stats(p.Ref)
	if err != nil {
		return State{}, err
	}
	snap, err := p.Client.Snapshot(p.Ref)
	if err != nil {
		return State{}, err
	}
	return State{Rounds: int(snap.Rounds), Fouls: st.Fouls, Convictions: st.Convictions, Digest: snap.Digest}, nil
}

func (p *WSPlayer) Close() error { return p.Client.CloseSession(p.Ref) }
