package gameauthority

import (
	"errors"
	"net/http"

	"gameauthority/internal/wire"
)

// retryClass is what a failure promises about the same request, sent
// again unchanged. The retriable and degraded classes are the 503s over
// HTTP and CodeUnavailable or CodeBreakerOpen over /ws, and a
// self-healing client retries exactly those.
type retryClass uint8

const (
	terminal  retryClass = iota // it will never succeed
	retriable                   // it may, later: a network still re-converging
	// degraded: retriable, and the cause is the store, not the session,
	// which is intact and keeps answering Stats, Snapshot and Results; its
	// plays run volatile (ErrDurability reports one that did) or are
	// refused until the cool-down ends (ErrBreakerOpen).
	degraded
)

// errorClass is how one failure reads on each transport.
type errorClass struct {
	status int    // HTTP status of the response
	code   uint64 // error code of the /ws reply (internal/wire)
	retry  retryClass
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
	{ErrSessionExists, errorClass{http.StatusConflict, wire.CodeExists, terminal}},
	{ErrSessionNotFound, errorClass{http.StatusNotFound, wire.CodeNotFound, terminal}},
	{ErrSessionID, errorClass{http.StatusBadRequest, wire.CodeBadRequest, terminal}},
	// The spec is well-formed and will never be admitted at this size.
	{ErrAgreementCost, errorClass{http.StatusBadRequest, wire.CodeBadRequest, terminal}},
	// The breaker failed the play fast: no round executed. Back off and
	// retry after the cool-down.
	{ErrBreakerOpen, errorClass{http.StatusServiceUnavailable, wire.CodeBreakerOpen, degraded}},
	// The request was valid; the store could not record or answer it.
	{ErrDurability, errorClass{http.StatusServiceUnavailable, wire.CodeUnavailable, degraded}},
	// The session is healthy but still re-converging (§4); the next play
	// keeps stepping.
	{ErrPulseBudget, errorClass{http.StatusServiceUnavailable, wire.CodeUnavailable, retriable}},
	// The session exists and is finished: its results and stats still
	// answer, a play conflicts with its state.
	{ErrClosed, errorClass{http.StatusConflict, wire.CodeClosed, terminal}},
}

// Classes for an error no row names. A create that fails any other way
// was handed a spec that does not build; anywhere else it is the server's
// fault.
var (
	classBadSpec  = errorClass{http.StatusBadRequest, wire.CodeBadRequest, terminal}
	classInternal = errorClass{http.StatusInternalServerError, wire.CodeInternal, terminal}
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
