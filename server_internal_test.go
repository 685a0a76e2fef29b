package gameauthority

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gameauthority/internal/hub"
	"gameauthority/internal/wire"
)

// TestEventWireZeroValues pins the SSE wire format: agent 0 convictions
// and candidate-0 election wins must keep their fields, and play events
// must not grow spurious agent/winner keys.
func TestEventWireZeroValues(t *testing.T) {
	marshal := func(e Event) string {
		b, err := json.Marshal(eventFor(e))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := marshal(Event{Kind: EventConviction, Agent: 0}); !strings.Contains(got, `"agent":0`) {
		t.Fatalf("conviction of agent 0 lost its agent field: %s", got)
	}
	if got := marshal(Event{Kind: EventElection, Winner: 0}); !strings.Contains(got, `"winner":0`) {
		t.Fatalf("election of candidate 0 lost its winner field: %s", got)
	}
	got := marshal(Event{Kind: EventPlay, Round: 3})
	if strings.Contains(got, `"agent"`) || strings.Contains(got, `"winner"`) {
		t.Fatalf("play event grew agent/winner keys: %s", got)
	}
}

// failingSession is a real session whose plays fail with a fixed error.
type failingSession struct {
	Session
	err error
}

func (s failingSession) Play(context.Context) (RoundResult, error) { return RoundResult{}, s.err }

func (s failingSession) PlayN(context.Context, int, func(RoundResult) error) (RoundResult, error) {
	return RoundResult{}, s.err
}

// TestErrorTableOnBothTransports walks every row of errorTable, plus an
// error no row names, through a play over HTTP and a play over /ws, and
// holds each transport to the status and the code the row lists. It also
// pins what the retry class promises a self-healing client: the retriable
// and degraded rows, and only those, are a 503 over HTTP and
// CodeUnavailable or CodeBreakerOpen on the wire. Then it walks the handle
// contract (DESIGN.md §9) on real sessions.
func TestErrorTableOnBothTransports(t *testing.T) {
	a := NewAuthority()
	defer a.Close()
	door := newDoors(t, a)

	rows := append(errorTable[:len(errorTable):len(errorTable)],
		errorRow{errors.New("an error no row names"), classInternal})
	for i, row := range rows {
		id := fmt.Sprintf("row-%d", i)
		base, err := New(PrisonersDilemma())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Host(id, failingSession{base, fmt.Errorf("play %s: %w", id, row.err)}); err != nil {
			t.Fatal(err)
		}
		if got := door.httpPlay(id); got != row.status {
			t.Errorf("%v over HTTP: status %d, table says %d", row.err, got, row.status)
		}
		if got := door.wsPlay(door.attach(id)); got != row.code {
			t.Errorf("%v over /ws: code %d, table says %d", row.err, got, row.code)
		}
		if is503 := row.status == http.StatusServiceUnavailable; is503 != (row.retry != terminal) {
			t.Errorf("%v: retry class %d but HTTP status %d", row.err, row.retry, row.status)
		}
		if retried := row.code == wire.CodeUnavailable || row.code == wire.CodeBreakerOpen; retried != (row.retry != terminal) {
			t.Errorf("%v: retry class %d but wire code %d", row.err, row.retry, row.code)
		}
	}

	// The create door's own row: an over-budget (n, f) is refused with the
	// row's status and code before anything is built.
	overBudget := []byte(`{"game":"mining","players":10,"distributed":{"n":10,"f":3}}`)
	want := classify(ErrAgreementCost, classInternal)
	resp, err := http.Post(door.url+"/sessions", "application/json", strings.NewReader(string(overBudget)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != want.status {
		t.Errorf("over-budget create over HTTP: status %d, table says %d", resp.StatusCode, want.status)
	}
	var re *hub.RemoteError
	if _, _, err := door.ws.Create(overBudget); !errors.As(err, &re) || re.Code != want.code {
		t.Errorf("over-budget create over /ws: %v, table says code %d", err, want.code)
	}

	// The handle contract: what a session held across a lifecycle event
	// answers, in process, over a /ws ref attached before the event, and
	// by id over HTTP. Each state names the sentinel; the status and the
	// code it must read as come from errorTable.
	for _, state := range []struct {
		name  string
		enter func(t *testing.T) held
		play  error // Play and PlayN on the held handle and the held ref
		byID  error // a play by id over HTTP, when the registry answers differently
		close error // Close on the held handle
	}{
		{name: "removed", play: ErrClosed, byID: ErrSessionNotFound, enter: func(t *testing.T) held {
			x := hold(t)
			if err := x.a.Remove(x.h.ID()); err != nil {
				t.Fatal(err)
			}
			return x
		}},
		{name: "closed", play: ErrClosed, enter: func(t *testing.T) held {
			x := hold(t)
			if err := x.h.Close(); err != nil {
				t.Fatal(err)
			}
			return x
		}},
		// Shutdown empties the registry, closes the store and drops every
		// /ws connection, so only the in-process handle is still held. By
		// id the closed store cannot say whether a ledger exists (it does,
		// and the next host recovers it): unavailable, not "not found".
		{name: "authority-shutdown", play: ErrClosed, byID: ErrDurability, enter: func(t *testing.T) held {
			x := hold(t)
			if err := x.a.Close(); err != nil {
				t.Fatal(err)
			}
			x.ref = 0
			return x
		}},
		// Every append fails and the breaker trips on the first: the one
		// play hold made ran volatile and opened it for an hour.
		{name: "breaker-open", play: ErrBreakerOpen, close: ErrDurability, enter: func(t *testing.T) held {
			return hold(t, WithFaultPlan(NewFaultPlan(FaultConfig{Seed: 1, AppendFail: 1})), WithBreaker(1, time.Hour))
		}},
		{name: "restored-closed", play: ErrClosed, enter: func(t *testing.T) held {
			x := hold(t)
			if err := x.h.Close(); err != nil {
				t.Fatal(err)
			}
			st := x.a.DetachStore()
			b := NewAuthority(WithStore(st))
			t.Cleanup(func() { b.Close() })
			if report, err := b.Recover(context.Background()); err != nil || len(report.Failed) > 0 {
				t.Fatalf("recover: %v, failed %v", err, report.Failed)
			}
			h, err := b.Get(x.h.ID())
			if err != nil {
				t.Fatal(err)
			}
			door := newDoors(t, b)
			return held{a: b, h: h, door: door, ref: door.attach(h.ID())}
		}},
	} {
		t.Run("handle/"+state.name, func(t *testing.T) {
			x := state.enter(t)
			ctx := context.Background()
			if _, err := x.h.Play(ctx); !errors.Is(err, state.play) {
				t.Errorf("Play: %v, want %v", err, state.play)
			}
			if _, err := x.h.PlayN(ctx, 2, nil); !errors.Is(err, state.play) {
				t.Errorf("PlayN: %v, want %v", err, state.play)
			}
			if got := x.h.Stats().Rounds; got != 1 {
				t.Errorf("Stats: %d rounds, want the 1 played before the event", got)
			}
			if snap := x.h.Snapshot(); snap.Rounds != 1 || snap.Digest == "" {
				t.Errorf("Snapshot: %+v, want round 1 and a digest", snap)
			}
			row := classify(state.play, classInternal)
			if x.ref != 0 {
				if got := x.door.wsPlay(x.ref); got != row.code {
					t.Errorf("play on the held /ws ref: code %d, table says %d", got, row.code)
				}
			}
			if state.byID != nil {
				row = classify(state.byID, classInternal)
			}
			if got := x.door.httpPlay(x.h.ID()); got != row.status {
				t.Errorf("play by id over HTTP: status %d, table says %d", got, row.status)
			}
			if err := x.h.Close(); !errors.Is(err, state.close) {
				t.Errorf("Close: %v, want %v", err, state.close)
			}
		})
	}
}

// held is one session held three ways across a lifecycle event.
type held struct {
	a    *Authority
	h    *HostedSession
	door doors
	ref  uint64 // attached before the event; 0 when the event drops the connection
}

// hold hosts a durable session on a fresh Mem-backed authority, attaches
// a /ws ref to it and plays it one round (which a failing store may
// report as ErrDurability: the round still ran).
func hold(t *testing.T, opts ...AuthorityOption) held {
	t.Helper()
	a := NewAuthority(append([]AuthorityOption{WithStore(NewMemStore())}, opts...)...)
	t.Cleanup(func() { a.Close() })
	h, err := a.CreateFromSpec(CreateSessionRequest{ID: "held", Game: "pd"})
	if err != nil {
		t.Fatal(err)
	}
	door := newDoors(t, a)
	x := held{a: a, h: h, door: door, ref: door.attach("held")}
	if _, err := h.Play(context.Background()); err != nil && !errors.Is(err, ErrDurability) {
		t.Fatal(err)
	}
	return x
}

// doors is one authority reached three ways: the in-process handle, the
// HTTP API and a /ws client.
type doors struct {
	t   *testing.T
	url string
	ws  *hub.Client
}

func newDoors(t *testing.T, a *Authority) doors {
	t.Helper()
	srv := httptest.NewServer(NewServer(a))
	t.Cleanup(srv.Close)
	c, err := hub.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return doors{t, srv.URL, c}
}

// httpPlay plays one round by id and returns the status.
func (d doors) httpPlay(id string) int {
	d.t.Helper()
	resp, err := http.Post(d.url+"/sessions/"+id+"/play", "application/json", nil)
	if err != nil {
		d.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (d doors) attach(id string) uint64 {
	d.t.Helper()
	ref, err := d.ws.Attach(id)
	if err != nil {
		d.t.Fatal(err)
	}
	return ref
}

// wsPlay plays one round on a held ref and returns the reply's error code.
func (d doors) wsPlay(ref uint64) uint64 {
	d.t.Helper()
	_, err := d.ws.Play(ref, 1)
	var re *hub.RemoteError
	if !errors.As(err, &re) {
		d.t.Fatalf("/ws play returned %v, want a remote error", err)
	}
	return re.Code
}

// TestAgreementCostAdmission pins the create door's budget on both
// transports at the shapes it was chosen between, and the one path that
// is deliberately not re-checked: a ledger whose spec prices over the
// budget (journaled under an older, larger one) still restores.
func TestAgreementCostAdmission(t *testing.T) {
	a := NewAuthority()
	defer a.Close()
	door := newDoors(t, a)
	spec := func(n, f int) string {
		return fmt.Sprintf(`{"game":"mining","players":%d,"distributed":{"n":%d,"f":%d}}`, n, n, f)
	}
	for _, tc := range []struct {
		n, f  int
		admit bool
	}{{7, 2, true}, {10, 2, true}, {16, 1, true}, {10, 3, false}, {13, 2, false}, {13, 4, false}} {
		t0 := time.Now()
		resp, err := http.Post(door.url+"/sessions", "application/json", strings.NewReader(spec(tc.n, tc.f)))
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(t0)
		var body struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		_, _, wsErr := door.ws.Create([]byte(spec(tc.n, tc.f)))
		if tc.admit {
			if resp.StatusCode != http.StatusCreated || wsErr != nil {
				t.Errorf("(%d,%d): HTTP %d %q, /ws %v; want both created", tc.n, tc.f, resp.StatusCode, body.Error, wsErr)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, ErrAgreementCost.Error()) {
			t.Errorf("(%d,%d) over HTTP: %d %q, want 400 carrying %q", tc.n, tc.f, resp.StatusCode, body.Error, ErrAgreementCost)
		}
		var re *hub.RemoteError
		if !errors.As(wsErr, &re) || re.Code != wire.CodeBadRequest {
			t.Errorf("(%d,%d) over /ws: %v, want CodeBadRequest", tc.n, tc.f, wsErr)
		}
		// Building the (13,4) layout takes seconds and the (10,3) one
		// tens of milliseconds; a refusal that built neither is far
		// below a second even under the race detector.
		if took > time.Second {
			t.Errorf("(%d,%d): refused in %v; the door must price before it builds", tc.n, tc.f, took)
		}
	}

	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSession("old", []byte(spec(10, 3))); err != nil {
		t.Fatal(err)
	}
	b := NewAuthority(WithStore(st))
	defer b.Close()
	report, err := b.Recover(context.Background())
	if err != nil || len(report.Failed) > 0 || report.Sessions != 1 {
		t.Fatalf("over-budget ledger: recover %+v, %v; want it restored", report, err)
	}
	if _, err := b.CreateFromSpec(CreateSessionRequest{ID: "new", Game: "mining", Players: 10,
		Distributed: &struct {
			N int `json:"n"`
			F int `json:"f"`
		}{10, 3}}); !errors.Is(err, ErrAgreementCost) {
		t.Fatalf("the same spec as a fresh create: %v, want ErrAgreementCost", err)
	}
}
