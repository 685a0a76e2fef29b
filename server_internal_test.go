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
// pins what the retriable column promises a self-healing client: those
// rows, and only those, are a 503 over HTTP and CodeUnavailable or
// CodeBreakerOpen on the wire.
func TestErrorTableOnBothTransports(t *testing.T) {
	a := NewAuthority()
	defer a.Close()
	srv := httptest.NewServer(NewServer(a))
	defer srv.Close()
	c, err := hub.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	httpPlay := func(id string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sessions/"+id+"/play", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	wsPlay := func(id string) uint64 {
		t.Helper()
		ref, err := c.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Play(ref, 1)
		var re *hub.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s: /ws play returned %v, want a remote error", id, err)
		}
		return re.Code
	}

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
		if got := httpPlay(id); got != row.status {
			t.Errorf("%v over HTTP: status %d, table says %d", row.err, got, row.status)
		}
		if got := wsPlay(id); got != row.code {
			t.Errorf("%v over /ws: code %d, table says %d", row.err, got, row.code)
		}
		if is503 := row.status == http.StatusServiceUnavailable; is503 != row.retriable {
			t.Errorf("%v: retriable %v but HTTP status %d", row.err, row.retriable, row.status)
		}
		if retried := row.code == wire.CodeUnavailable || row.code == wire.CodeBreakerOpen; retried != row.retriable {
			t.Errorf("%v: retriable %v but wire code %d", row.err, row.retriable, row.code)
		}
	}

	// One row end to end on a real session: a play on a closed session is
	// a conflict on both transports, not a server error.
	h, err := a.CreateFromSpec(CreateSessionRequest{ID: "done", Game: "pd"})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := httpPlay("done"); got != http.StatusConflict {
		t.Errorf("play on a closed session over HTTP: status %d, want 409", got)
	}
	if got := wsPlay("done"); got != wire.CodeClosed {
		t.Errorf("play on a closed session over /ws: code %d, want CodeClosed", got)
	}
}
