package gameauthority_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	ga "gameauthority"
)

// FuzzServerSessions throws arbitrary bodies at POST /sessions: malformed
// JSON, huge player counts and history limits, unknown scenario and
// strategy names, conflicting kinds. The server must never panic and
// never accept-and-crash: every response is 201 (created), 400 (rejected)
// or 409 (duplicate id), and a 201 must leave a session the registry can
// list and report stats for.
func FuzzServerSessions(f *testing.F) {
	seeds := []string{
		``,
		`{`,
		`not json at all`,
		`{"game":"congestion","players":4}`,
		`{"game":"braess","players":4,"kind":"mixed","audit":"per-round"}`,
		`{"game":"nosuchgame"}`,
		`{"game":"congestion","players":1000000}`,
		`{"game":"minority","players":-3}`,
		`{"game":"pd","history_limit":2147483647}`,
		`{"game":"pd","history_limit":-1}`,
		`{"kind":"rra","rra":{"agents":8,"resources":4}}`,
		`{"kind":"rra","rra":{"agents":1000000000,"resources":2}}`,
		`{"kind":"distributed","game":"pd","distributed":{"n":1000000,"f":3}}`,
		`{"kind":"distributed","game":"publicgoods","players":4,"distributed":{"n":4,"f":1}}`,
		`{"game":"pd","deviant":{"player":0,"strategy":"freerider"}}`,
		`{"game":"pd","deviant":{"player":99,"strategy":"freerider"}}`,
		`{"game":"pd","deviant":{"player":0,"strategy":"nosuch"}}`,
		`{"game":"pd","deviant":{"player":0,"strategy":"freerider","prob":0.5}}`,
		`{"game":"pd","deviant":{"player":0,"strategy":"distribution-skewer","prob":-3}}`,
		`{"game":"pd","deviant":{"player":0,"strategy":"distribution-skewer","prob":0.25},"punishment":{"scheme":"disconnect"}}`,
		`{"game":"pd","punishment":{"scheme":"deposit","escrow":-5}}`,
		`{"id":"../../etc","game":"pd"}`,
		`{"game":"secondprice","players":20}`,
		`{"game":"pd","audit":"statistical","kind":"mixed","window":-4,"chi_threshold":1e308}`,
		// Either side of the agreement cost budget: (17,1) is the largest
		// f=1 shape the create door admits, (18,1) the first it refuses.
		`{"game":"publicgoods","players":17,"distributed":{"n":17,"f":1}}`,
		`{"game":"publicgoods","players":18,"distributed":{"n":18,"f":1}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := ga.NewServer(ga.NewAuthority())

		req := httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("POST /sessions returned %d for %q", rec.Code, body)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.ID == "" {
			t.Fatalf("created session without a usable id: %s (%v)", rec.Body.Bytes(), err)
		}
		// The created session must be listable and report stats without
		// panicking.
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /sessions returned %d after a create", rec.Code)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/"+created.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /sessions/%s returned %d", created.ID, rec.Code)
		}
	})
}

// FuzzServerPlay throws arbitrary session ids and bodies at
// POST /sessions/{id}/play. The server must never panic, must cap the
// requested work (the per-request rounds cap), and must keep the hosted
// session playable afterwards.
func FuzzServerPlay(f *testing.F) {
	f.Add("s", []byte(`{"rounds":2}`))
	f.Add("s", []byte(``))
	f.Add("s", []byte(`{"rounds":-5}`))
	f.Add("s", []byte(`{"rounds":2147483647}`))
	f.Add("s", []byte(`{"rounds":1e309}`))
	f.Add("s", []byte(`{"rounds":"two"}`))
	f.Add("s", []byte(`{`))
	f.Add("nosuch", []byte(`{"rounds":1}`))
	f.Add("../s", []byte(`{"rounds":1}`))
	f.Add("s\x00s", []byte(`{"rounds":1}`))

	f.Fuzz(func(t *testing.T, id string, body []byte) {
		a := ga.NewAuthority()
		if _, err := a.Create("s", ga.PrisonersDilemma(), ga.WithSeed(1), ga.WithHistoryLimit(4)); err != nil {
			t.Fatal(err)
		}
		srv := ga.NewServer(a)

		target := "/sessions/" + id + "/play"
		req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			return // unroutable id — nothing to test
		}
		rec := httptest.NewRecorder()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("play handler panicked for id=%q body=%q: %v", id, body, r)
				}
			}()
			srv.ServeHTTP(rec, req)
		}()
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("play returned %d for id=%q body=%q: %s", rec.Code, id, body, rec.Body.Bytes())
		}
		// Whatever happened, the hosted session must still play.
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions/s/play", bytes.NewReader([]byte(`{"rounds":1}`))))
		if rec.Code != http.StatusOK {
			t.Fatalf("session wedged after fuzzed play: %d %s", rec.Code, rec.Body.Bytes())
		}
	})
}
