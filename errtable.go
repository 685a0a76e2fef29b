package gameauthority

import (
	"errors"
	"net/http"

	"gameauthority/internal/wire"
)

// errorClass is how one failure reads on each transport.
type errorClass struct {
	status int    // HTTP status of the response
	code   uint64 // error code of the /ws reply (internal/wire)
	// retriable: the same request, unchanged, may succeed later — a
	// degraded store, an open breaker, a network still re-converging. A
	// self-healing client retries exactly these (503 over HTTP,
	// CodeUnavailable or CodeBreakerOpen over /ws) and gives up on the
	// rest, which are terminal for the request as sent.
	retriable bool
}

// errorRow classes every error that wraps err.
type errorRow struct {
	err error
	errorClass
}

// errorTable is the one place a sentinel error is given its HTTP status
// and its wire code; the HTTP handlers and the /ws backend both classify
// through it, so the two transports cannot drift apart. Rows are matched
// in order with errors.Is; the first match wins.
var errorTable = []errorRow{
	{ErrSessionExists, errorClass{http.StatusConflict, wire.CodeExists, false}},
	{ErrSessionNotFound, errorClass{http.StatusNotFound, wire.CodeNotFound, false}},
	{ErrSessionID, errorClass{http.StatusBadRequest, wire.CodeBadRequest, false}},
	// The breaker failed the play fast: no round executed. Back off and
	// retry after the cool-down.
	{ErrBreakerOpen, errorClass{http.StatusServiceUnavailable, wire.CodeBreakerOpen, true}},
	// The request was valid; the store could not record or answer it.
	{ErrDurability, errorClass{http.StatusServiceUnavailable, wire.CodeUnavailable, true}},
	// The session is healthy but still re-converging (§4); the next play
	// keeps stepping.
	{ErrPulseBudget, errorClass{http.StatusServiceUnavailable, wire.CodeUnavailable, true}},
	// The session exists and is finished: its results and stats still
	// answer, a play conflicts with its state.
	{ErrClosed, errorClass{http.StatusConflict, wire.CodeClosed, false}},
}

// Classes for an error no row names. A create that fails any other way
// was handed a spec that does not build; anywhere else it is the server's
// fault.
var (
	classBadSpec  = errorClass{http.StatusBadRequest, wire.CodeBadRequest, false}
	classInternal = errorClass{http.StatusInternalServerError, wire.CodeInternal, false}
)

// classify returns err's row of errorTable, or fallback when none matches.
func classify(err error, fallback errorClass) errorClass {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.errorClass
		}
	}
	return fallback
}
