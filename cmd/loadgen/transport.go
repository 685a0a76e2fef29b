package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
)

// historyLimit bounds every load session's retained history: the harness
// only measures latency, so rings keep 1000+ long-running sessions at a
// flat memory footprint.
const historyLimit = 8

// Group-commit shape for batched durable runs. The committer is
// leader/follower: the window only arms it (no append waits on it), and
// appends from concurrent sessions that land during one flush share the
// next fsync epoch, up to groupCommitMaxBatch of them.
const (
	groupCommitWindow   = time.Millisecond
	groupCommitMaxBatch = 256
)

// --- In-process transport -----------------------------------------------------

// inprocTransport hosts sessions directly on a sharded Authority — the
// registry and the play hot paths with no wire in between. With durable
// set (crash mode), sessions are created from their serializable wire
// specs so the authority journals them to the write-ahead log and a
// recovered authority can rebuild them.
type inprocTransport struct {
	authority *ga.Authority
	durable   bool
	// extraOpts re-applies write-path options (group commit) to every
	// authority rebuilt across a crash/recover cycle.
	extraOpts []ga.AuthorityOption
}

func (t *inprocTransport) create(id string, sc scenario, seed uint64, dev deviance) (player, error) {
	if t.durable {
		return t.createDurable(id, sc, seed, dev)
	}
	g, opts, err := sc.build(seed)
	if err != nil {
		return nil, err
	}
	opts = append(opts, ga.WithSeed(seed), ga.WithHistoryLimit(historyLimit))
	if dev.strategy != "" {
		strategy, ok := ga.DeviantByName(dev.strategy)
		if !ok {
			return nil, fmt.Errorf("unknown deviant strategy %q", dev.strategy)
		}
		opts = append(opts, ga.WithDeviant(0, strategy))
		if !sc.punished {
			// Unpunished scenarios get the paper's disconnection scheme
			// so the executive can convict what the judicial detects.
			opts = append(opts, ga.WithPunishment(ga.NewDisconnectScheme(sc.players, 0)))
		}
	}
	if dev.chaos && sc.driver == "distributed" {
		// Wire-level chaos on top: processor 1 (never the deviant's slot
		// 0) drops a third of its traffic — inside the f-tolerance, so
		// plays still complete while the network misbehaves.
		opts = append(opts, ga.WithNetworkAdversary(1, ga.DropAdversary(seed, 0.3)))
	}
	h, err := t.authority.Create(id, g, opts...)
	if err != nil {
		return nil, err
	}
	return &inprocPlayer{h: h, authority: t.authority}, nil
}

// createDurable builds the session from the same wire spec the HTTP
// transport posts, so the spec is journaled and the session survives a
// crash of the authority.
func (t *inprocTransport) createDurable(id string, sc scenario, seed uint64, dev deviance) (player, error) {
	req := sc.request(id, seed)
	req.HistoryLimit = historyLimit
	if dev.strategy != "" {
		req.Deviant = &ga.DeviantSpec{Player: 0, Strategy: dev.strategy}
		if !sc.punished && req.Punishment == nil {
			req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		}
	}
	h, err := t.authority.CreateFromSpec(req)
	if err != nil {
		return nil, err
	}
	return &inprocPlayer{h: h, authority: t.authority}, nil
}

// crashRecover SIGKILL-drops the current authority and recovers a fresh
// one from the detached store: the old instance is abandoned un-synced
// (exactly what a kill leaves behind), recovery replays every journaled
// session, and only then is the corpse closed to free its worker pools —
// the close journals nothing because the store is already detached.
func (t *inprocTransport) crashRecover(ctx context.Context) (ga.RecoveryReport, error) {
	old := t.authority
	st := old.DetachStore()
	if st == nil {
		return ga.RecoveryReport{}, fmt.Errorf("crash mode needs a store-backed authority")
	}
	next := ga.NewAuthority(append([]ga.AuthorityOption{ga.WithStore(st)}, t.extraOpts...)...)
	report, err := next.Recover(ctx)
	if err != nil {
		return report, err
	}
	if len(report.Failed) > 0 {
		return report, fmt.Errorf("recovery failed for %d sessions (first: %s)", len(report.Failed), report.Failed[0])
	}
	_ = old.Close()
	t.authority = next
	return report, nil
}

// rebind points a player at its recovered session on the new authority.
func (t *inprocTransport) rebind(p player) error {
	ip, ok := p.(*inprocPlayer)
	if !ok {
		return fmt.Errorf("crash mode supports only the in-process transport")
	}
	h, err := t.authority.Get(ip.h.ID())
	if err != nil {
		return fmt.Errorf("session lost across the crash: %w", err)
	}
	ip.h, ip.authority = h, t.authority
	return nil
}

func (t *inprocTransport) shutdown() error { return t.authority.Close() }

type inprocPlayer struct {
	h         *ga.HostedSession
	authority *ga.Authority
}

func (p *inprocPlayer) play(ctx context.Context) error {
	_, err := p.h.Play(ctx)
	return err
}

func (p *inprocPlayer) playN(ctx context.Context, n int) error {
	_, err := p.h.PlayN(ctx, n, nil)
	return err
}

func (p *inprocPlayer) stats() (outcome, error) {
	st := p.h.Stats()
	out := outcome{fouls: st.Fouls, convictions: st.Convictions}
	if len(st.Excluded) > 0 {
		out.excluded = st.Excluded[0]
	}
	return out, nil
}

func (p *inprocPlayer) close() error { return p.authority.Remove(p.h.ID()) }

// --- HTTP transport -----------------------------------------------------------

// httpTransport drives a gameauthd -serve instance over the JSON API, one
// POST per play, so latencies include the full wire round trip.
type httpTransport struct {
	base       string
	client     *http.Client
	onShutdown func()
}

func newHTTPTransport(base string) *httpTransport {
	// The default transport keeps 2 idle conns per host — a thousand
	// concurrent players would churn through ephemeral ports. Keep one
	// warm connection per in-flight session instead.
	inner := &http.Transport{
		MaxIdleConns:        2048,
		MaxIdleConnsPerHost: 2048,
	}
	return &httpTransport{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Transport: inner, Timeout: 2 * time.Minute},
	}
}

func (t *httpTransport) create(id string, sc scenario, seed uint64, dev deviance) (player, error) {
	req := sc.request(id, seed)
	req.HistoryLimit = historyLimit
	if dev.strategy != "" {
		req.Deviant = &ga.DeviantSpec{Player: 0, Strategy: dev.strategy}
		if !sc.punished && req.Punishment == nil {
			req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if err := t.do(http.MethodPost, "/sessions", body, http.StatusCreated); err != nil {
		return nil, err
	}
	return &httpPlayer{t: t, id: id}, nil
}

func (t *httpTransport) shutdown() error {
	t.client.CloseIdleConnections()
	if t.onShutdown != nil {
		t.onShutdown()
	}
	return nil
}

// do runs one request and checks the status, returning the server's
// error payload on mismatch.
func (t *httpTransport) do(method, path string, body []byte, want int) error {
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
	// Drain so the connection returns to the idle pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

type httpPlayer struct {
	t  *httpTransport
	id string
}

var playBody = []byte(`{"rounds":1}`)

func (p *httpPlayer) play(context.Context) error {
	return p.t.do(http.MethodPost, "/sessions/"+p.id+"/play", playBody, http.StatusOK)
}

func (p *httpPlayer) playN(_ context.Context, n int) error {
	return p.t.do(http.MethodPost, fmt.Sprintf("/sessions/%s/play?n=%d", p.id, n), nil, http.StatusOK)
}

func (p *httpPlayer) stats() (outcome, error) {
	resp, err := p.t.client.Get(p.t.base + "/sessions/" + p.id)
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return outcome{}, fmt.Errorf("GET /sessions/%s: status %d: %s",
			p.id, resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var st struct {
		Fouls       int    `json:"fouls"`
		Convictions int    `json:"convictions"`
		Excluded    []bool `json:"excluded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return outcome{}, err
	}
	out := outcome{fouls: st.Fouls, convictions: st.Convictions}
	if len(st.Excluded) > 0 {
		out.excluded = st.Excluded[0]
	}
	return out, nil
}

func (p *httpPlayer) close() error {
	return p.t.do(http.MethodDelete, "/sessions/"+p.id, nil, http.StatusNoContent)
}

// --- WebSocket transport ------------------------------------------------------

// wsTransport drives the /ws binary streaming endpoint: all sessions are
// multiplexed over a small fixed set of connections (-conns), so 100k+
// concurrent sessions ride a few dozen sockets. Sessions are assigned to
// connections round-robin at create time and stay pinned (the ref is
// connection-local).
type wsTransport struct {
	clients    []*hub.Client
	next       atomic.Uint64
	onShutdown func()
}

func newWSTransport(base string, conns int) (*wsTransport, error) {
	t := &wsTransport{clients: make([]*hub.Client, 0, conns)}
	for i := 0; i < conns; i++ {
		c, err := hub.Dial(base + "/ws")
		if err != nil {
			for _, prev := range t.clients {
				prev.Close()
			}
			return nil, fmt.Errorf("ws dial %d/%d: %w", i+1, conns, err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *wsTransport) create(id string, sc scenario, seed uint64, dev deviance) (player, error) {
	req := sc.request(id, seed)
	req.HistoryLimit = historyLimit
	if dev.strategy != "" {
		req.Deviant = &ga.DeviantSpec{Player: 0, Strategy: dev.strategy}
		if !sc.punished && req.Punishment == nil {
			req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c := t.clients[int(t.next.Add(1))%len(t.clients)]
	ref, _, err := c.Create(body)
	if err != nil {
		return nil, err
	}
	return &wsPlayer{c: c, ref: ref}, nil
}

func (t *wsTransport) shutdown() error {
	for _, c := range t.clients {
		c.Close()
	}
	if t.onShutdown != nil {
		t.onShutdown()
	}
	return nil
}

type wsPlayer struct {
	c   *hub.Client
	ref uint64
}

func (p *wsPlayer) play(context.Context) error {
	_, err := p.c.Play(p.ref, 1)
	return err
}

func (p *wsPlayer) playN(_ context.Context, n int) error {
	_, err := p.c.PlayBatch(p.ref, n)
	return err
}

func (p *wsPlayer) stats() (outcome, error) {
	st, err := p.c.Stats(p.ref)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{fouls: st.Fouls, convictions: st.Convictions}
	for _, i := range st.Excluded {
		if i == 0 {
			out.excluded = true
		}
	}
	return out, nil
}

func (p *wsPlayer) close() error { return p.c.CloseSession(p.ref) }
