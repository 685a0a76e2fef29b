package hub

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gameauthority/internal/core"
	"gameauthority/internal/obs"
	"gameauthority/internal/wire"
)

// wsRoundTrip measures a play command's full server-side round trip:
// from command decode on the reader goroutine to the results frame being
// queued on the connection outbox.
var wsRoundTrip = obs.NewHistogram("gameauthority_ws_roundtrip_seconds",
	"WebSocket play round-trip latency, decode to results frame queued.")

// The transport's counters and its connection gauge. stream_timeouts is
// shared by name with the root package's SSE handler.
var (
	wsConnections = obs.NewGauge("gameauthority_ws_connections",
		"Live WebSocket connections.")
	streamTimeouts = obs.NewCounter("gameauthority_stream_timeouts_total",
		"Streaming connections closed by a write deadline.")
	reconnects = obs.NewCounter("gameauthority_reconnects_total",
		"WebSocket clients re-dialing after a lost connection.")
	resumedSubscriptions = obs.NewCounter("gameauthority_resumed_subscriptions_total",
		"Event subscriptions re-established with a resume token.")
	dedupedPlays = obs.NewCounter("gameauthority_deduped_plays_total",
		"Play rounds answered from the journal on retried commands.")
)

// liveConns holds every open connection across all hubs; the outbox
// depth gauge samples it at scrape time.
var liveConns sync.Map // *wsConn -> struct{}

func init() {
	obs.RegisterGaugeFunc("gameauthority_hub_outbox_depth",
		"Frames queued on WebSocket outboxes, summed over open connections.",
		func() float64 {
			var n int
			liveConns.Range(func(k, _ any) bool {
				n += len(k.(*wsConn).outbox)
				return true
			})
			return float64(n)
		})
}

// Handle is one hosted session as the hub needs it. The root package
// adapts *gameauthority.HostedSession; the indirection keeps internal/hub
// importable without a cycle.
type Handle interface {
	ID() string
	// PlayN runs n rounds under one session lock and journals them as one
	// WAL record; sink observes each completed round, in order, before the
	// next runs, and must encode or copy what it keeps.
	PlayN(ctx context.Context, n int, sink func(core.RoundResult) error) (core.RoundResult, error)
	// ResultAt returns the completed result of an absolute round index,
	// if it is still in the session's retained history — the replay
	// source for deduplicated play retries. The result may alias
	// session-owned buffers; encode or copy it before the next play.
	ResultAt(round int) (core.RoundResult, bool)
	Subscribe(obs core.Observer) (cancel func())
	Stats() core.SessionStats
	// Snapshot captures (and, when a durable store is configured,
	// persists) the session's canonical snapshot.
	Snapshot() (snap core.SessionSnapshot, persisted bool, err error)
}

// Backend is the authority surface the hub dispatches commands into.
type Backend interface {
	// Create hosts a session from a JSON CreateSessionRequest document.
	Create(spec []byte) (Handle, error)
	// Attach resolves an existing (possibly store-resident) session.
	Attach(ctx context.Context, id string) (Handle, error)
	// Remove closes and unregisters a session.
	Remove(id string) error
}

// Coded attaches a wire error code to an error so the backend can steer
// the status a client sees.
type Coded struct {
	Code uint64
	Err  error
}

func (c Coded) Error() string { return c.Err.Error() }

// Unwrap exposes the inner error to errors.Is/As.
func (c Coded) Unwrap() error { return c.Err }

// ErrCode extracts the wire code from err, defaulting to CodeInternal.
func ErrCode(err error) uint64 {
	var c Coded
	if errors.As(err, &c) {
		return c.Code
	}
	return wire.CodeInternal
}

// Options tune a Hub.
type Options struct {
	// Shards is the pool running plays; required.
	Shards *Shards
	// Outbox is the per-connection queue depth in frames (default 256).
	Outbox int
	// WriteTimeout bounds one flush to the peer; a connection that cannot
	// absorb its outbox within it is closed (default 10s).
	WriteTimeout time.Duration
	// MaxMessage caps one incoming WebSocket message (default 4 MiB).
	MaxMessage int
	// MaxRounds caps rounds per play command, mirroring the HTTP API.
	MaxRounds uint64
}

// Hub serves the /ws endpoint: each connection multiplexes many sessions,
// with a single reader (the request goroutine) dispatching commands onto
// the shard loops and a single writer goroutine draining a bounded
// outbox.
type Hub struct {
	backend Backend
	opt     Options
	bufs    bufList
}

// bufList is a bounded free list of frame buffers, one per Hub and per
// Client. A sync.Pool of []byte would box a slice header on every Put,
// i.e. on every frame.
type bufList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// maxFreeBufs bounds a bufList. It covers the frames in flight on a busy
// connection set; a burst beyond it allocates.
const maxFreeBufs = 256

// New builds a Hub over the backend.
func New(b Backend, opt Options) *Hub {
	if opt.Shards == nil {
		panic("hub: Options.Shards is required")
	}
	if opt.Outbox <= 0 {
		opt.Outbox = 256
	}
	if opt.WriteTimeout <= 0 {
		opt.WriteTimeout = 10 * time.Second
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 100000
	}
	return &Hub{backend: b, opt: opt}
}

func (l *bufList) get() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.bufs); n > 0 {
		b := l.bufs[n-1]
		l.bufs = l.bufs[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 512)
}

func (l *bufList) put(b []byte) {
	if cap(b) > 1<<16 { // don't pool jumbo buffers
		return
	}
	l.mu.Lock()
	if len(l.bufs) < maxFreeBufs {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// ServeHTTP upgrades the request and runs the connection until the peer
// goes away or a protocol error occurs.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ws, err := Upgrade(w, r, h.opt.MaxMessage)
	if err != nil {
		return
	}
	wsConnections.Inc()
	defer wsConnections.Dec()
	ctx, cancel := context.WithCancel(r.Context())
	conn := &wsConn{
		hub:    h,
		ws:     ws,
		ctx:    ctx,
		cancel: cancel,
		outbox: make(chan []byte, h.opt.Outbox),
		done:   make(chan struct{}),
		refs:   make(map[uint64]*refEntry),
	}
	liveConns.Store(conn, struct{}{})
	defer conn.shutdown()

	// Handshake: the client speaks first.
	ws.SetReadDeadline(time.Now().Add(10 * time.Second))
	op, payload, err := ws.ReadMessage()
	if err != nil || op != opBinary {
		return
	}
	dec := wire.NewDecoder(payload)
	if dec.Byte() != wire.MsgHello {
		return
	}
	hello, err := wire.DecodeHello(&dec)
	if err != nil || hello.Version != wire.Version {
		ws.WriteMessage(opBinary, wire.AppendError(nil, 0, wire.CodeBadRequest,
			fmt.Sprintf("unsupported protocol version (want %d)", wire.Version)))
		return
	}
	if hello.Flags&wire.FlagReconnect != 0 {
		reconnects.Inc()
	}
	ws.SetReadDeadline(time.Time{})
	if err := ws.WriteMessage(opBinary,
		wire.AppendWelcome(h.bufs.get(), wire.Version, uint64(h.opt.Shards.N()))); err != nil {
		return
	}

	go conn.writeLoop()
	conn.readLoop()
}

// refEntry is one connection-local session binding.
type refEntry struct {
	ref    uint64
	handle Handle
	shard  int // the shard loop owning the session, fixed at bind

	// reply is the MsgResults frame of the play job running on this entry
	// (one at a time: a session's jobs share a shard loop), parked here so
	// that encode — appendResult bound once at bind — is the sink of every
	// PlayN call and a play allocates no closure.
	reply  []byte
	encode func(core.RoundResult) error

	// unsub cancels the event subscription, if any. Subscribe, unsubscribe,
	// close and connection shutdown all run on the reader goroutine, so
	// it needs no lock; enc is touched only by the subscription's offer.
	unsub func()
	enc   wire.EventEncoder
}

// wsConn is the server side of one connection.
type wsConn struct {
	hub    *Hub
	ws     *WSConn
	ctx    context.Context
	cancel context.CancelFunc

	outbox chan []byte
	done   chan struct{}
	once   sync.Once

	mu      sync.Mutex // guards refs and nextRef
	refs    map[uint64]*refEntry
	nextRef uint64
}

// closeConn makes the connection doomed: pending sends unblock, the
// writer exits, in-flight shard jobs see a cancelled context.
func (c *wsConn) closeConn() {
	c.once.Do(func() {
		c.cancel()
		close(c.done)
		c.ws.Close()
	})
}

// shutdown runs when the reader exits: tear everything down and detach
// observers so closed connections stop consuming session events.
func (c *wsConn) shutdown() {
	liveConns.Delete(c)
	c.closeConn()
	c.mu.Lock()
	refs := make([]*refEntry, 0, len(c.refs))
	for _, e := range c.refs {
		refs = append(refs, e)
	}
	clear(c.refs)
	c.mu.Unlock()
	for _, e := range refs {
		e.detach()
	}
}

func (e *refEntry) detach() {
	if e.unsub != nil {
		e.unsub()
		e.unsub = nil
	}
}

// send queues a command reply. It blocks while the outbox is full (the
// writer goroutine drains it; a peer that cannot keep up trips the write
// deadline, which closes the connection and unblocks us) and reports
// whether the frame was accepted.
func (c *wsConn) send(b []byte) bool {
	select {
	case c.outbox <- b:
		return true
	case <-c.done:
		c.hub.bufs.put(b)
		return false
	}
}

// trySend queues an event frame without blocking: events are droppable,
// and the subscriber is told how many it missed via MsgLag.
func (c *wsConn) trySend(b []byte) bool {
	select {
	case c.outbox <- b:
		return true
	default:
		c.hub.bufs.put(b)
		return false
	}
}

// writeLoop drains the outbox, coalescing queued frames into one flush.
func (c *wsConn) writeLoop() {
	for {
		select {
		case b := <-c.outbox:
			if !c.writeBatch(b) {
				return
			}
		case <-c.done:
			// Best-effort drain of already-queued replies.
			for {
				select {
				case b := <-c.outbox:
					if !c.writeBatch(b) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// writeBatch writes b plus everything else currently queued, then
// flushes under one write deadline.
func (c *wsConn) writeBatch(first []byte) bool {
	c.ws.SetWriteDeadline(time.Now().Add(c.hub.opt.WriteTimeout))
	err := c.ws.WriteMessageNoFlush(opBinary, first)
	c.hub.bufs.put(first)
	for err == nil {
		select {
		case b := <-c.outbox:
			err = c.ws.WriteMessageNoFlush(opBinary, b)
			c.hub.bufs.put(b)
			continue
		default:
		}
		break
	}
	if err == nil {
		err = c.ws.Flush()
	}
	if err != nil {
		if isTimeout(err) {
			streamTimeouts.Inc()
		}
		c.closeConn()
		return false
	}
	return true
}

func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// readLoop decodes command batches and dispatches them. Any protocol
// error is fatal to the connection.
func (c *wsConn) readLoop() {
	for {
		op, payload, err := c.ws.ReadMessage()
		if err != nil {
			return
		}
		if op != opBinary {
			continue
		}
		dec := wire.NewDecoder(payload)
		for dec.Len() > 0 {
			if !c.dispatch(&dec) {
				return
			}
		}
	}
}

func (c *wsConn) lookup(ref uint64) *refEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refs[ref]
}

func (c *wsConn) sendError(reqID, code uint64, msg string) bool {
	return c.send(wire.AppendError(c.hub.bufs.get(), reqID, code, msg))
}

// dispatch decodes and executes one command. It returns false when the
// connection should die (malformed frame or doomed connection).
func (c *wsConn) dispatch(dec *wire.Decoder) bool {
	switch typ := dec.Byte(); typ {
	case wire.MsgHello:
		if _, err := wire.DecodeHello(dec); err != nil {
			return false
		}
		return true // redundant hello: ignore
	case wire.MsgCreate:
		m, err := wire.DecodeCreate(dec)
		if err != nil {
			return false
		}
		handle, cerr := c.hub.backend.Create(m.Spec)
		return c.finishBind(m.ReqID, handle, cerr)
	case wire.MsgAttach:
		m, err := wire.DecodeAttach(dec)
		if err != nil {
			return false
		}
		handle, aerr := c.hub.backend.Attach(c.ctx, m.ID)
		return c.finishBind(m.ReqID, handle, aerr)
	case wire.MsgPlay, wire.MsgPlayBatch:
		m, err := wire.DecodePlay(dec)
		if err != nil {
			return false
		}
		return c.handlePlay(m)
	case wire.MsgSubscribe:
		m, err := wire.DecodeSubscribe(dec)
		if err != nil {
			return false
		}
		return c.handleSubscribe(m)
	case wire.MsgUnsubscribe:
		m, err := wire.DecodeRefReq(dec)
		if err != nil {
			return false
		}
		if e := c.lookup(m.Ref); e != nil {
			e.detach()
		}
		return c.send(wire.AppendOK(c.hub.bufs.get(), m.ReqID))
	case wire.MsgCloseSession:
		m, err := wire.DecodeRefReq(dec)
		if err != nil {
			return false
		}
		return c.handleCloseSession(m)
	case wire.MsgStats:
		m, err := wire.DecodeRefReq(dec)
		if err != nil {
			return false
		}
		e := c.lookup(m.Ref)
		if e == nil {
			return c.sendError(m.ReqID, wire.CodeNotFound, "unknown ref")
		}
		st := e.handle.Stats()
		return c.send(wire.AppendStatsReply(c.hub.bufs.get(), m.ReqID, &st))
	case wire.MsgSnapshot:
		m, err := wire.DecodeRefReq(dec)
		if err != nil {
			return false
		}
		return c.handleSnapshot(m)
	default:
		return false // unknown or server-to-client type: protocol error
	}
}

// finishBind registers a successfully created/attached handle under a
// fresh ref and replies.
func (c *wsConn) finishBind(reqID uint64, handle Handle, err error) bool {
	if err != nil {
		return c.sendError(reqID, ErrCode(err), err.Error())
	}
	c.mu.Lock()
	c.nextRef++
	ref := c.nextRef
	e := &refEntry{ref: ref, handle: handle, shard: c.hub.opt.Shards.Index(handle.ID())}
	e.encode = e.appendResult
	c.refs[ref] = e
	c.mu.Unlock()
	// The completed-round count seeds the client's idempotency watermark
	// (bind is the cold path, so the extra Stats call costs nothing on
	// the play path).
	rounds := uint64(handle.Stats().Rounds)
	return c.send(wire.AppendCreated(c.hub.bufs.get(), reqID, ref, handle.ID(), rounds))
}

// appendResult is the PlayN sink: the result aliases session scratch, and
// encoding it here, before the next round, is the required copy.
func (e *refEntry) appendResult(res core.RoundResult) error {
	e.reply = wire.AppendResult(e.reply, &res)
	return nil
}

// handlePlay enqueues the request onto the session's shard loop, where
// play runs it. The job is recycled, so a play allocates nothing here.
func (c *wsConn) handlePlay(m wire.Play) bool {
	t0 := time.Now()
	e := c.lookup(m.Ref)
	if e == nil {
		return c.sendError(m.ReqID, wire.CodeNotFound, "unknown ref")
	}
	if m.Rounds == 0 {
		m.Rounds = 1
	}
	if m.Rounds > c.hub.opt.MaxRounds {
		return c.sendError(m.ReqID, wire.CodeBadRequest, "rounds exceeds limit")
	}
	j := jobs.Get().(*job)
	*j = job{conn: c, e: e, play: m, t0: t0}
	if !c.hub.opt.Shards.submit(e.shard, j) {
		return c.sendError(m.ReqID, wire.CodeUnavailable, "authority shutting down")
	}
	return true
}

// play runs one play request on e's shard loop: the rounds left after
// watermark dedup run as one PlayN call, and their results stream back
// in a single MsgResults frame.
func (c *wsConn) play(e *refEntry, m wire.Play, t0 time.Time) {
	e.reply = wire.AppendResultsHeader(c.hub.bufs.get(), m.ReqID, e.ref)
	code, detail := wire.CodeOK, ""
	var deduped uint64
	remaining := m.Rounds
	if m.Expect > 0 {
		// Idempotent retry: the client believes expect rounds have
		// completed. When the session is ahead (the original command
		// was applied before the connection died), replay the
		// already-completed overlap from the session's history
		// instead of double-playing.
		expect := m.Expect - 1
		if cur := uint64(e.handle.Stats().Rounds); cur > expect {
			replay := cur - expect
			if replay > remaining {
				replay = remaining
			}
			for i := uint64(0); i < replay; i++ {
				res, ok := e.handle.ResultAt(int(expect + i))
				if !ok {
					code = wire.CodeBadRequest
					detail = "retry watermark outside the retained history window"
					break
				}
				e.reply = wire.AppendResult(e.reply, &res)
				deduped++
			}
			remaining -= deduped
			dedupedPlays.Add(int64(deduped))
		}
	}
	if code == wire.CodeOK && remaining > 0 {
		if _, err := e.handle.PlayN(c.ctx, int(remaining), e.encode); err != nil {
			code, detail = ErrCode(err), err.Error()
		}
	}
	reply := e.reply
	e.reply = nil
	c.send(wire.FinishResults(reply, code, detail, deduped))
	wsRoundTrip.Record(time.Since(t0))
}

func (c *wsConn) handleSubscribe(m wire.Subscribe) bool {
	e := c.lookup(m.Ref)
	if e == nil {
		return c.sendError(m.ReqID, wire.CodeNotFound, "unknown ref")
	}
	if e.unsub != nil {
		return c.sendError(m.ReqID, wire.CodeExists, "already subscribed")
	}
	// A non-zero Since is a resume token: the client re-subscribed after
	// a disconnect. The subscription below always starts a fresh delta
	// encoder, so the first event is self-contained — the token's job is
	// client-side (distinguishing replayed events from new ones), the
	// server just counts the resume.
	if m.Since > 0 {
		resumedSubscriptions.Inc()
	}
	e.enc.Reset()
	e.unsub = Feed(e.handle.Subscribe, func(ev core.Event, lag uint64) bool {
		buf := c.hub.bufs.get()
		if lag > 0 {
			buf = wire.AppendLag(buf, e.ref, lag)
		}
		buf = e.enc.Append(buf, e.ref, &ev)
		if c.trySend(buf) {
			return true
		}
		// Dropped: the next delivered frame must not be a delta against
		// an event the subscriber never saw.
		e.enc.Reset()
		return false
	})
	return c.send(wire.AppendOK(c.hub.bufs.get(), m.ReqID))
}

func (c *wsConn) handleCloseSession(m wire.RefReq) bool {
	e := c.lookup(m.Ref)
	if e == nil {
		return c.sendError(m.ReqID, wire.CodeNotFound, "unknown ref")
	}
	e.detach()
	c.mu.Lock()
	delete(c.refs, m.Ref)
	c.mu.Unlock()
	if err := c.hub.backend.Remove(e.handle.ID()); err != nil {
		return c.sendError(m.ReqID, ErrCode(err), err.Error())
	}
	return c.send(wire.AppendOK(c.hub.bufs.get(), m.ReqID))
}

// handleSnapshot runs on the session's shard loop so the digest reflects
// a quiescent point between plays.
func (c *wsConn) handleSnapshot(m wire.RefReq) bool {
	e := c.lookup(m.Ref)
	if e == nil {
		return c.sendError(m.ReqID, wire.CodeNotFound, "unknown ref")
	}
	ok := c.hub.opt.Shards.Submit(e.handle.ID(), func() {
		snap, persisted, err := e.handle.Snapshot()
		if err != nil {
			c.sendError(m.ReqID, ErrCode(err), err.Error())
			return
		}
		c.send(wire.AppendSnapshotReply(c.hub.bufs.get(), m.ReqID,
			uint64(snap.Rounds), snap.Digest, persisted))
	})
	if !ok {
		return c.sendError(m.ReqID, wire.CodeUnavailable, "authority shutting down")
	}
	return true
}
