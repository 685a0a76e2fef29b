package hub

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"gameauthority/internal/prng"
	"gameauthority/internal/wire"
)

// cryptoRand seeds per-connection mask-key PRNGs.
var cryptoRand = cryptorand.Reader

func newConnReader(conn net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(conn, 1<<16)
}

// ErrClientClosed reports an operation on a closed client connection.
var ErrClientClosed = errors.New("hub: client connection closed")

// ErrConnLost marks a command that failed because the underlying
// connection died mid-flight. With DialOptions.Reconnect set, the client
// retries idempotent commands internally; commands that cannot be
// retried blindly (Create) surface it wrapped for the caller to handle.
var ErrConnLost = errors.New("hub: connection lost")

// RemoteError is a server-reported command failure.
type RemoteError struct {
	Code   uint64
	Detail string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("hub: remote error %d: %s", e.Code, e.Detail)
}

// PlayOutcome is the client-side result of one play batch: plain
// counts, owned by the caller. A round's outcome and costs reach a
// caller that wants them as events (Subscribe).
type PlayOutcome struct {
	// Completed counts the rounds delivered before any error, including
	// deduplicated replays of rounds a lost connection orphaned.
	Completed int
	// Deduped counts how many of the delivered rounds were replayed from
	// the server's journal instead of being played fresh (idempotent
	// retry overlap).
	Deduped int
	// LastRound is the absolute index of the final delivered round
	// (valid when Completed > 0).
	LastRound int
}

// EventHandler consumes pushed events for one subscription. lag is the
// number of events dropped (or missed across a disconnect) immediately
// before ev (0 almost always); the event following a lag gap is always
// self-contained. The handler runs on the connection's read goroutine:
// it must not block, and ev's slices are owned by the delta decoder —
// valid only for the duration of the call, copy to retain.
type EventHandler func(ev wire.Event, lag uint64)

// DialOptions tune a Client connection.
type DialOptions struct {
	// ConnectTimeout bounds the TCP dial (default 10s).
	ConnectTimeout time.Duration
	// HandshakeTimeout bounds the HTTP upgrade and protocol handshake
	// (default 10s).
	HandshakeTimeout time.Duration

	// Reconnect makes the client self-healing: when the connection dies
	// it re-dials with exponential backoff and jitter, re-attaches every
	// known session by id, resumes subscriptions with their event
	// sequence tokens, and retries idempotent commands (Play retries use
	// the session's round watermark, so the server dedupes rounds the
	// lost connection orphaned — no verdict is ever double-played or
	// lost). Reconnecting clients assume each session is driven through
	// one ref at a time; concurrent Plays on the same session through
	// different clients would confuse the watermark accounting.
	Reconnect bool
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 50ms
	// and 2s); each attempt doubles the delay, jittered by the seeded
	// PRNG.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxAttempts caps consecutive failed reconnect attempts before the
	// client gives up and closes permanently (0 = retry forever).
	MaxAttempts int

	// PingInterval enables the idle keepalive: when no frame arrives for
	// one interval the client pings, and when a second interval passes
	// silently it declares the connection half-open and tears it down
	// (triggering a reconnect when enabled). 0 disables the probe.
	PingInterval time.Duration

	// Seed seeds the backoff jitter PRNG (chaos harnesses pin it for
	// reproducible schedules).
	Seed uint64
	// WrapConn, when set, decorates the TCP connection before the
	// handshake — the hook for client-side fault injection
	// (faults.Plan.Conn).
	WrapConn func(net.Conn) net.Conn
}

func (o *DialOptions) withDefaults() {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 10 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
}

// ClientCounters are a client's self-healing tallies.
type ClientCounters struct {
	// Reconnects counts successful re-dials after a lost connection.
	Reconnects uint64
	// ResumedSubscriptions counts subscriptions re-established with a
	// resume token after a reconnect.
	ResumedSubscriptions uint64
	// DedupedRounds counts play rounds the server answered from its
	// journal on retried commands instead of re-playing.
	DedupedRounds uint64
}

// clientConn is one physical connection: the socket plus its writer
// queue and lifecycle channels. The Client swaps these out across
// reconnects while sessions and subscriptions persist above.
type clientConn struct {
	ws       *WSConn
	outbox   chan []byte
	down     chan struct{} // closed when the connection is declared dead
	readDone chan struct{} // closed when the read goroutine has exited
	once     sync.Once
	err      error
}

func (cc *clientConn) fail(err error) {
	cc.once.Do(func() {
		cc.err = err
		close(cc.down)
		cc.ws.Close()
	})
}

// clientSession is one bound session as the client tracks it across
// reconnects. ref is the client-stable handle returned to callers; the
// server-side ref is re-learned on every (re)attach.
type clientSession struct {
	ref uint64
	id  string

	// rounds is the idempotency watermark: completed rounds whose
	// results this client has delivered to its caller.
	rounds atomic.Uint64

	// serverRef, sub, err, and closeSent are guarded by the Client mutex.
	serverRef uint64
	sub       *clientSub
	err       error // re-attach failure; cleared when a later attach succeeds
	closeSent bool  // a MsgCloseSession went out; see CloseSession
}

type clientSub struct {
	handler EventHandler
	// dec, lag, lastSeq, and resumed are owned by the connection's read
	// goroutine; the reconnect manager touches them only between read
	// goroutines (it waits for the old reader to exit and publishes
	// before the new subscription is registered).
	dec     wire.EventDecoder
	lag     uint64
	lastSeq uint64
	resumed bool
}

// Client is one multiplexed WebSocket connection to an authority. All
// methods are safe for concurrent use: many goroutines can issue
// commands over one connection, and a writer goroutine coalesces their
// frames into shared flushes. With DialOptions.Reconnect the client is
// self-healing: the connection may die and be re-dialed underneath the
// callers, whose session refs stay valid.
type Client struct {
	Shards int // shard loops on the serving authority (from the first Welcome)

	opt  DialOptions
	host string
	path string

	done chan struct{}
	once sync.Once

	mu           sync.Mutex
	cause        error
	conn         *clientConn   // nil while disconnected
	ready        chan struct{} // closed while the current conn is usable
	reconnecting bool
	pending      map[uint64]*call
	sessions     map[uint64]*clientSession // by client ref
	byServerRef  map[uint64]*clientSession
	nextReq      uint64
	nextRef      uint64
	calls        []*call // free reply slots

	bufs bufList

	rng prng.Source // backoff jitter; only the reconnect manager draws

	reconnects atomic.Uint64
	resumed    atomic.Uint64
	deduped    atomic.Uint64
}

// reply is one command's answer. A play's counts are typed fields, so
// delivering them boxes nothing; the rarer replies (Created, Stats,
// SnapshotReply, OK) travel in msg.
type reply struct {
	out PlayOutcome
	msg any
	err error
}

// call is the reply slot of one outstanding command, recycled through the
// Client's free list. Whoever removes it from pending — resolve, or
// failPending when the connection dies — is the one goroutine that writes
// rep and signals done; the waiter reads rep only after receiving from
// done, and recycles the slot only then. So a slot is never reused while
// a reply to its previous command can still land in it.
type call struct {
	done chan struct{} // cap 1: one signal per use
	rep  reply
}

// maxFreeCalls bounds the Client's free reply slots: one per command in
// flight is kept, and a burst beyond it allocates.
const maxFreeCalls = 64

// Dial connects and performs the protocol handshake with default
// options (10s connect/handshake timeouts, no reconnect, no keepalive).
// rawURL accepts ws://, wss:// is not supported (no TLS in this
// deployment), and for convenience http:// URLs (e.g. a httptest server
// base) are rewritten.
func Dial(rawURL string) (*Client, error) {
	return DialWith(rawURL, DialOptions{})
}

// DialWith connects with explicit options.
func DialWith(rawURL string, opt DialOptions) (*Client, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("hub: dial: %w", err)
	}
	switch u.Scheme {
	case "ws", "http":
	default:
		return nil, fmt.Errorf("hub: dial: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	path := u.Path
	if path == "" || path == "/" {
		path = "/ws"
	}
	opt.withDefaults()

	c := &Client{
		opt:         opt,
		host:        host,
		path:        path,
		done:        make(chan struct{}),
		ready:       make(chan struct{}),
		pending:     make(map[uint64]*call),
		sessions:    make(map[uint64]*clientSession),
		byServerRef: make(map[uint64]*clientSession),
	}
	// Domain-separation label for the jitter stream ("hubclint" as
	// bytes), so a chaos seed shared with a fault plan stays independent.
	c.rng.Seed(prng.Mix(opt.Seed, 0x687562636c696e74))

	conn, shards, err := c.dialConn(false)
	if err != nil {
		return nil, err
	}
	c.Shards = shards
	c.conn = conn
	close(c.ready)
	c.startConn(conn)
	return c, nil
}

// dialConn establishes one physical connection: TCP dial, optional fault
// wrapper, HTTP upgrade, and the Hello/Welcome exchange.
func (c *Client) dialConn(reconnect bool) (*clientConn, int, error) {
	raw, err := net.DialTimeout("tcp", c.host, c.opt.ConnectTimeout)
	if err != nil {
		return nil, 0, fmt.Errorf("hub: dial: %w", err)
	}
	if c.opt.WrapConn != nil {
		raw = c.opt.WrapConn(raw)
	}
	ws, err := clientHandshake(raw, c.host, c.path, c.opt.HandshakeTimeout)
	if err != nil {
		raw.Close()
		return nil, 0, err
	}
	var flags uint64
	if reconnect {
		flags |= wire.FlagReconnect
	}
	if err := ws.WriteMessage(opBinary, wire.AppendHello(nil, wire.Version, flags)); err != nil {
		ws.Close()
		return nil, 0, fmt.Errorf("hub: handshake: %w", err)
	}
	ws.SetReadDeadline(time.Now().Add(c.opt.HandshakeTimeout))
	op, payload, err := ws.ReadMessage()
	if err != nil || op != opBinary {
		ws.Close()
		return nil, 0, fmt.Errorf("hub: handshake: no welcome: %v", err)
	}
	dec := wire.NewDecoder(payload)
	if dec.Byte() != wire.MsgWelcome {
		ws.Close()
		return nil, 0, errors.New("hub: handshake: unexpected first message")
	}
	welcome, err := wire.DecodeWelcome(&dec)
	if err != nil || welcome.Version != wire.Version {
		ws.Close()
		return nil, 0, errors.New("hub: handshake: protocol version mismatch")
	}
	ws.SetReadDeadline(time.Time{})
	conn := &clientConn{
		ws:       ws,
		outbox:   make(chan []byte, 256),
		down:     make(chan struct{}),
		readDone: make(chan struct{}),
	}
	return conn, int(welcome.Shards), nil
}

func (c *Client) startConn(conn *clientConn) {
	go c.readLoop(conn)
	go c.writeLoop(conn)
	if c.opt.PingInterval > 0 {
		go c.keepalive(conn)
	}
}

func clientHandshake(conn net.Conn, host, path string, timeout time.Duration) (*WSConn, error) {
	var keyRaw [16]byte
	if _, err := cryptoRand.Read(keyRaw[:]); err != nil {
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte(req)); err != nil {
		return nil, fmt.Errorf("hub: handshake request: %w", err)
	}
	br := newConnReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, fmt.Errorf("hub: handshake response: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("hub: handshake refused: %s", resp.Status)
	}
	if resp.Header.Get("Sec-WebSocket-Accept") != acceptKey(key) {
		return nil, errors.New("hub: handshake: bad Sec-WebSocket-Accept")
	}
	conn.SetDeadline(time.Time{})
	return newWSConn(conn, br, true, 0), nil
}

func (c *Client) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return c.cause
	}
	return ErrClientClosed
}

// lostErr shapes the error pending commands see when a connection dies:
// retryable (ErrConnLost) for self-healing clients, the raw cause for
// plain ones (which are about to close permanently anyway).
func (c *Client) lostErr(cause error) error {
	if !c.opt.Reconnect || errors.Is(cause, ErrConnLost) {
		return cause
	}
	return fmt.Errorf("%w: %v", ErrConnLost, cause)
}

func (c *Client) failPending(err error) {
	c.mu.Lock()
	pend := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range pend {
		cl.rep = reply{err: err}
		cl.done <- struct{}{}
	}
}

func (c *Client) closeWith(err error) {
	c.once.Do(func() {
		c.mu.Lock()
		c.cause = err
		conn := c.conn
		c.mu.Unlock()
		close(c.done)
		if conn != nil {
			conn.fail(err)
		}
		c.failPending(err)
	})
}

// Close tears the connection down; outstanding commands fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closeWith(ErrClientClosed)
	return nil
}

// Counters reports the client's self-healing tallies.
func (c *Client) Counters() ClientCounters {
	return ClientCounters{
		Reconnects:           c.reconnects.Load(),
		ResumedSubscriptions: c.resumed.Load(),
		DedupedRounds:        c.deduped.Load(),
	}
}

// connLost declares conn dead. Pending commands fail (retryably, for a
// self-healing client); a plain client closes permanently, a
// self-healing one hands off to the reconnect manager.
func (c *Client) connLost(conn *clientConn, cause error) {
	conn.fail(cause)
	select {
	case <-c.done:
		return
	default:
	}
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	select {
	case <-c.ready:
		// The gate was open: re-arm it so commands wait for the next
		// connection instead of racing a dead one.
		c.ready = make(chan struct{})
	default:
	}
	start := c.opt.Reconnect && !c.reconnecting
	if start {
		c.reconnecting = true
	}
	c.mu.Unlock()
	c.failPending(c.lostErr(cause))
	if !c.opt.Reconnect {
		c.closeWith(cause)
		return
	}
	if start {
		go c.reconnectLoop(conn, cause)
	}
}

// jitter spreads a backoff delay over [d/2, d] using the seeded PRNG.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := uint64(d / 2)
	return time.Duration(half + c.rng.Uint64()%(half+1))
}

// reconnectLoop re-dials with exponential backoff, re-attaches every
// known session, resumes subscriptions, and finally opens the command
// gate. It is the only goroutine rebuilding connection state, so the
// swap is race-free: the old read goroutine is drained before any
// session state is touched.
func (c *Client) reconnectLoop(dead *clientConn, cause error) {
	<-dead.readDone
	backoff := c.opt.BackoffMin
	for attempt := 1; ; attempt++ {
		if c.opt.MaxAttempts > 0 && attempt > c.opt.MaxAttempts {
			c.closeWith(fmt.Errorf("hub: reconnect: giving up after %d attempts: %w", c.opt.MaxAttempts, cause))
			return
		}
		select {
		case <-time.After(c.jitter(backoff)):
		case <-c.done:
			return
		}
		if backoff *= 2; backoff > c.opt.BackoffMax {
			backoff = c.opt.BackoffMax
		}
		conn, _, err := c.dialConn(true)
		if err != nil {
			cause = err
			continue
		}
		c.mu.Lock()
		select {
		case <-c.done:
			c.mu.Unlock()
			conn.fail(ErrClientClosed)
			return
		default:
		}
		c.conn = conn
		c.mu.Unlock()
		c.startConn(conn)
		if err := c.rebind(conn); err != nil {
			cause = err
			c.connLost(conn, err)
			<-conn.readDone
			continue
		}
		c.reconnects.Add(1)
		c.mu.Lock()
		if c.conn == conn {
			c.reconnecting = false
			close(c.ready)
			c.mu.Unlock()
			return
		}
		// The fresh connection died between rebind and the gate opening;
		// keep the manager role and try again.
		c.mu.Unlock()
		<-conn.readDone
	}
}

// rebind re-attaches every known session by id on a fresh connection and
// re-subscribes with resume tokens. A connection-level error aborts (the
// manager redials); a per-session remote refusal is recorded on the
// session so its commands fail with the typed error.
func (c *Client) rebind(conn *clientConn) error {
	c.mu.Lock()
	sessions := make([]*clientSession, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	clear(c.byServerRef)
	c.mu.Unlock()

	for _, s := range sessions {
		rid := c.reqID()
		rep, err := c.roundTripOn(conn, rid, wire.AppendAttach(c.bufs.get(), rid, s.id))
		if err != nil {
			var re *RemoteError
			if errors.As(err, &re) {
				c.mu.Lock()
				s.err = err
				c.mu.Unlock()
				continue
			}
			return err
		}
		created, ok := rep.msg.(wire.Created)
		if !ok {
			return errors.New("hub: client: unexpected attach reply")
		}
		c.mu.Lock()
		s.err = nil
		s.serverRef = created.Ref
		sub := s.sub
		if sub != nil {
			// The server starts a fresh delta stream for a resumed
			// subscription, so reset the decoder with it. Publishing
			// these fields before the byServerRef entry exists keeps
			// them ordered ahead of any event delivery.
			sub.dec = wire.EventDecoder{}
			sub.resumed = true
		}
		c.byServerRef[created.Ref] = s
		c.mu.Unlock()
		// Deliberately NOT updating s.rounds from created.Rounds: the
		// watermark tracks what this client's caller has seen. A server
		// that is ahead means orphaned rounds, which the next Play
		// retrieves as deduplicated replays.
		if sub != nil {
			rid := c.reqID()
			_, err := c.roundTripOn(conn, rid,
				wire.AppendSubscribe(c.bufs.get(), rid, created.Ref, sub.lastSeq+1))
			if err != nil {
				var re *RemoteError
				if !errors.As(err, &re) {
					return err
				}
				c.mu.Lock()
				s.err = err
				c.mu.Unlock()
				continue
			}
			c.resumed.Add(1)
		}
	}
	return nil
}

// awaitConn returns the current usable connection, waiting through any
// reconnect in progress.
func (c *Client) awaitConn() (*clientConn, error) {
	for {
		c.mu.Lock()
		conn, ready := c.conn, c.ready
		c.mu.Unlock()
		if conn != nil {
			select {
			case <-ready:
				return conn, nil
			default:
			}
		}
		select {
		case <-ready:
		case <-c.done:
			return nil, c.closedErr()
		}
	}
}

func (c *Client) writeLoop(conn *clientConn) {
	for {
		select {
		case b := <-conn.outbox:
			conn.ws.SetWriteDeadline(time.Now().Add(30 * time.Second))
			err := conn.ws.WriteMessageNoFlush(opBinary, b)
			c.bufs.put(b)
			for err == nil {
				select {
				case b2 := <-conn.outbox:
					err = conn.ws.WriteMessageNoFlush(opBinary, b2)
					c.bufs.put(b2)
					continue
				default:
				}
				break
			}
			if err == nil {
				err = conn.ws.Flush()
			}
			if err != nil {
				c.connLost(conn, fmt.Errorf("hub: client write: %w", err))
				return
			}
		case <-conn.down:
			return
		}
	}
}

// keepalive detects half-open connections: when a full interval passes
// with no frame from the server it pings; when a second passes still
// silent, the connection is torn down (and re-dialed when reconnect is
// enabled) instead of letting round trips hang forever.
func (c *Client) keepalive(conn *clientConn) {
	t := time.NewTicker(c.opt.PingInterval)
	defer t.Stop()
	last := conn.ws.Activity()
	pinged := false
	for {
		select {
		case <-t.C:
			act := conn.ws.Activity()
			if act != last {
				last, pinged = act, false
				continue
			}
			if !pinged {
				pinged = true
				conn.ws.SetWriteDeadline(time.Now().Add(c.opt.PingInterval))
				if err := conn.ws.WritePing(nil); err != nil {
					c.connLost(conn, fmt.Errorf("hub: keepalive ping: %w", err))
					return
				}
				continue
			}
			c.connLost(conn, fmt.Errorf("hub: keepalive: no traffic for %v", 2*c.opt.PingInterval))
			return
		case <-conn.down:
			return
		case <-c.done:
			return
		}
	}
}

func (c *Client) readLoop(conn *clientConn) {
	defer close(conn.readDone)
	var scratch wire.Result
	for {
		op, payload, err := conn.ws.ReadMessage()
		if err != nil {
			if errors.Is(err, ErrWSClosed) {
				err = ErrClientClosed
			}
			c.connLost(conn, err)
			return
		}
		if op != opBinary {
			continue
		}
		dec := wire.NewDecoder(payload)
		for dec.Len() > 0 {
			if err := c.dispatch(&dec, &scratch); err != nil {
				c.connLost(conn, err)
				return
			}
		}
	}
}

// dispatch routes one server message: replies resolve the pending
// round-trip by request id, pushes go to the subscription handler.
func (c *Client) dispatch(dec *wire.Decoder, scratch *wire.Result) error {
	switch typ := dec.Byte(); typ {
	case wire.MsgCreated:
		m, err := wire.DecodeCreated(dec)
		if err != nil {
			return err
		}
		c.resolve(m.ReqID, reply{msg: m})
	case wire.MsgResults:
		h, err := wire.DecodeResultsHeader(dec)
		if err != nil {
			return err
		}
		// Decode in place with one reusable scratch result, which never
		// leaves this goroutine: the waiter sees only counts, so a
		// 100k-session load generator never allocates per round.
		var rep reply
		for {
			more, err := wire.DecodeResultItem(dec, scratch)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			rep.out.Completed++
			rep.out.LastRound = scratch.Round
		}
		t, err := wire.DecodeResultsTrailer(dec)
		if err != nil {
			return err
		}
		rep.out.Deduped = int(t.Deduped)
		if t.Deduped > 0 {
			c.deduped.Add(t.Deduped)
		}
		if t.Code != wire.CodeOK {
			// The completed prefix stays visible beside the error.
			rep.err = &RemoteError{Code: t.Code, Detail: t.Detail}
		}
		c.resolve(h.ReqID, rep)
	case wire.MsgError:
		m, err := wire.DecodeError(dec)
		if err != nil {
			return err
		}
		c.resolve(m.ReqID, reply{err: &RemoteError{Code: m.Code, Detail: m.Detail}})
	case wire.MsgOK:
		m, err := wire.DecodeOK(dec)
		if err != nil {
			return err
		}
		c.resolve(m.ReqID, reply{msg: m})
	case wire.MsgStatsReply:
		reqID, st, err := wire.DecodeStatsReply(dec)
		if err != nil {
			return err
		}
		c.resolve(reqID, reply{msg: st})
	case wire.MsgSnapshotReply:
		m, err := wire.DecodeSnapshotReply(dec)
		if err != nil {
			return err
		}
		c.resolve(m.ReqID, reply{msg: m})
	case wire.MsgEvent:
		ref := dec.Uvarint()
		if err := dec.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		var sub *clientSub
		if s := c.byServerRef[ref]; s != nil {
			sub = s.sub
		}
		c.mu.Unlock()
		if sub == nil {
			// Event for a ref we no longer track: skip by decoding with
			// a throwaway decoder (delta state is irrelevant once
			// unsubscribed).
			var dead wire.EventDecoder
			_, err := dead.Decode(dec)
			return err
		}
		ev, err := sub.dec.Decode(dec)
		if err != nil {
			return err
		}
		if ev.Seq > 0 && ev.Seq <= sub.lastSeq {
			// An event we already delivered before the disconnect
			// (e.g. a sticky election replayed on re-subscribe): drop
			// the duplicate, keeping the stream exactly-once.
			return nil
		}
		lag := sub.lag
		sub.lag = 0
		if sub.resumed {
			sub.resumed = false
			if sub.lastSeq > 0 && ev.Seq > sub.lastSeq+1 {
				// Events emitted while we were disconnected are gone;
				// report them as lag so the consumer knows the gap.
				lag += ev.Seq - sub.lastSeq - 1
			}
		}
		sub.lastSeq = ev.Seq
		if sub.handler != nil {
			sub.handler(ev, lag)
		}
	case wire.MsgLag:
		m, err := wire.DecodeLag(dec)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if s := c.byServerRef[m.Ref]; s != nil && s.sub != nil {
			s.sub.lag += m.Dropped
		}
		c.mu.Unlock()
	default:
		return fmt.Errorf("hub: client: unexpected message type %#x", typ)
	}
	return nil
}

// resolve answers the command reqID, if it is still pending: the
// goroutine that removes a call from pending is the one that fills it.
func (c *Client) resolve(reqID uint64, rep reply) {
	c.mu.Lock()
	cl := c.pending[reqID]
	delete(c.pending, reqID)
	c.mu.Unlock()
	if cl != nil {
		cl.rep = rep
		cl.done <- struct{}{}
	}
}

// pend takes a reply slot from the free list and registers it for reqID.
func (c *Client) pend(reqID uint64) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cl *call
	if n := len(c.calls); n > 0 {
		cl = c.calls[n-1]
		c.calls = c.calls[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	c.pending[reqID] = cl
	return cl
}

// roundTripOn sends an encoded command frame on conn and waits for its
// reply. A death of conn fails the round trip through the pending map.
func (c *Client) roundTripOn(conn *clientConn, reqID uint64, frame []byte) (reply, error) {
	cl := c.pend(reqID)
	select {
	case conn.outbox <- frame:
		select {
		case <-cl.done:
		case <-conn.down:
			// The connection died while we waited. Usually failPending
			// answers the call, but a command that registered after the
			// sweep (and still enqueued its frame into the dead
			// connection's buffered outbox) would wait forever, so answer
			// it here. A reply that won the race is kept.
			c.resolve(reqID, reply{err: c.lostErr(conn.err)})
			<-cl.done
		case <-c.done:
			c.resolve(reqID, reply{err: c.closedErr()})
			<-cl.done
		}
	case <-conn.down:
		c.bufs.put(frame)
		c.resolve(reqID, reply{err: c.lostErr(conn.err)})
		<-cl.done
	case <-c.done:
		c.bufs.put(frame)
		c.resolve(reqID, reply{err: c.closedErr()})
		<-cl.done
	}
	// The one signal the call will ever get for this use has been
	// received, so nothing can write it any more: recycle it.
	rep := cl.rep
	cl.rep = reply{}
	c.mu.Lock()
	if len(c.calls) < maxFreeCalls {
		c.calls = append(c.calls, cl)
	}
	c.mu.Unlock()
	return rep, rep.err
}

func (c *Client) reqID() uint64 {
	c.mu.Lock()
	c.nextReq++
	id := c.nextReq
	c.mu.Unlock()
	return id
}

// retryable reports whether err should be retried on a fresh connection.
func (c *Client) retryable(err error) bool {
	return c.opt.Reconnect && errors.Is(err, ErrConnLost)
}

func errUnknownRef() error {
	return &RemoteError{Code: wire.CodeNotFound, Detail: "unknown ref"}
}

func (c *Client) session(ref uint64) *clientSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[ref]
}

// sessionTarget resolves the current server-side ref of s, surfacing a
// recorded re-attach failure as the typed error the server reported.
func (c *Client) sessionTarget(s *clientSession) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	return s.serverRef, nil
}

// register binds a fresh client-stable ref to a session the server just
// acknowledged.
func (c *Client) register(created wire.Created) *clientSession {
	s := &clientSession{id: created.ID, serverRef: created.Ref}
	s.rounds.Store(created.Rounds)
	c.mu.Lock()
	c.nextRef++
	s.ref = c.nextRef
	c.sessions[s.ref] = s
	c.byServerRef[created.Ref] = s
	c.mu.Unlock()
	return s
}

// Create hosts a session from a JSON CreateSessionRequest document and
// returns its client-stable ref and canonical id. Create is not blindly
// retried on a lost connection (it is not idempotent); callers that know
// the session id can recover with Attach, treating a CodeExists error
// from a repeated Create the same way.
func (c *Client) Create(spec []byte) (ref uint64, id string, err error) {
	conn, err := c.awaitConn()
	if err != nil {
		return 0, "", err
	}
	rid := c.reqID()
	rep, err := c.roundTripOn(conn, rid, wire.AppendCreate(c.bufs.get(), rid, spec))
	if err != nil {
		return 0, "", err
	}
	created, ok := rep.msg.(wire.Created)
	if !ok {
		return 0, "", errors.New("hub: client: unexpected create reply")
	}
	s := c.register(created)
	return s.ref, created.ID, nil
}

// Attach binds an existing session (recovering it from the durable store
// if needed) and returns its ref. Attach is idempotent and retried
// across reconnects.
func (c *Client) Attach(id string) (ref uint64, err error) {
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return 0, err
		}
		rid := c.reqID()
		rep, err := c.roundTripOn(conn, rid, wire.AppendAttach(c.bufs.get(), rid, id))
		if err != nil {
			if c.retryable(err) {
				continue
			}
			return 0, err
		}
		created, ok := rep.msg.(wire.Created)
		if !ok {
			return 0, errors.New("hub: client: unexpected attach reply")
		}
		s := c.register(created)
		return s.ref, nil
	}
}

// Play runs rounds plays on ref. For a self-healing client, a play
// interrupted by a lost connection is retried with the session's round
// watermark: the server replays the rounds that completed before the
// cut (deduplicated, from its journal) and plays only the remainder
// fresh, so the caller sees every round's result exactly once. Plays on
// one session are assumed not to run concurrently when reconnect is
// enabled.
func (c *Client) Play(ref uint64, rounds int) (PlayOutcome, error) {
	s := c.session(ref)
	if s == nil {
		return PlayOutcome{}, errUnknownRef()
	}
	want := uint64(rounds)
	if rounds <= 0 {
		want = 1
	}
	target := s.rounds.Load() + want
	var total PlayOutcome
	for {
		cur := s.rounds.Load()
		if cur >= target {
			return total, nil
		}
		conn, err := c.awaitConn()
		if err != nil {
			return total, err
		}
		serverRef, serr := c.sessionTarget(s)
		if serr != nil {
			return total, serr
		}
		var expect uint64
		if c.opt.Reconnect {
			expect = cur + 1
		}
		rid := c.reqID()
		rep, err := c.roundTripOn(conn, rid,
			wire.AppendPlay(c.bufs.get(), rid, serverRef, target-cur, expect))
		out := rep.out
		if out.Completed > 0 {
			total.Completed += out.Completed
			total.Deduped += out.Deduped
			total.LastRound = out.LastRound
			s.rounds.Store(uint64(out.LastRound) + 1)
		}
		if err != nil {
			if c.retryable(err) {
				continue
			}
			return total, err
		}
		if out.Completed == 0 {
			// A successful reply that advanced nothing: don't spin.
			return total, nil
		}
	}
}

// Subscribe starts event delivery for ref. The handler runs on the
// connection's read goroutine: it must not block and must not call back
// into the client synchronously. A self-healing client re-establishes
// the subscription after every reconnect, resuming from the last seen
// event sequence number; events missed while disconnected surface as
// lag on the first resumed delivery.
func (c *Client) Subscribe(ref uint64, handler EventHandler) error {
	s := c.session(ref)
	if s == nil {
		return errUnknownRef()
	}
	ours := &clientSub{handler: handler}
	c.mu.Lock()
	if s.sub != nil {
		c.mu.Unlock()
		return errors.New("hub: client: already subscribed")
	}
	s.sub = ours
	c.mu.Unlock()

	for {
		conn, err := c.awaitConn()
		if err != nil {
			return err
		}
		serverRef, serr := c.sessionTarget(s)
		if serr != nil {
			c.unregisterSub(s, ours)
			return serr
		}
		rid := c.reqID()
		_, err = c.roundTripOn(conn, rid, wire.AppendSubscribe(c.bufs.get(), rid, serverRef, 0))
		if err == nil {
			return nil
		}
		if c.retryable(err) {
			continue
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Code == wire.CodeExists && c.subIs(s, ours) {
			// A reconnect's rebind saw the handler registered above and
			// subscribed for us — possibly before our first round trip;
			// the subscription is live.
			return nil
		}
		c.unregisterSub(s, ours)
		return err
	}
}

func (c *Client) subIs(s *clientSession, ours *clientSub) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return s.sub == ours
}

func (c *Client) unregisterSub(s *clientSession, ours *clientSub) {
	c.mu.Lock()
	if s.sub == ours {
		s.sub = nil
	}
	c.mu.Unlock()
}

// Unsubscribe stops event delivery for ref.
func (c *Client) Unsubscribe(ref uint64) error {
	s := c.session(ref)
	if s == nil {
		return errUnknownRef()
	}
	c.mu.Lock()
	s.sub = nil
	c.mu.Unlock()
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return err
		}
		serverRef, serr := c.sessionTarget(s)
		if serr != nil {
			return serr
		}
		rid := c.reqID()
		_, err = c.roundTripOn(conn, rid, wire.AppendRefReq(c.bufs.get(), wire.MsgUnsubscribe, rid, serverRef))
		if c.retryable(err) {
			// After a reconnect the fresh connection has no server-side
			// subscription and rebind skips unsubscribed sessions, so
			// the retry is a harmless confirmation.
			continue
		}
		return err
	}
}

// Stats fetches driver stats for ref (idempotent; retried across
// reconnects).
func (c *Client) Stats(ref uint64) (wire.Stats, error) {
	s := c.session(ref)
	if s == nil {
		return wire.Stats{}, errUnknownRef()
	}
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return wire.Stats{}, err
		}
		serverRef, serr := c.sessionTarget(s)
		if serr != nil {
			return wire.Stats{}, serr
		}
		rid := c.reqID()
		rep, err := c.roundTripOn(conn, rid, wire.AppendRefReq(c.bufs.get(), wire.MsgStats, rid, serverRef))
		if err != nil {
			if c.retryable(err) {
				continue
			}
			return wire.Stats{}, err
		}
		st, ok := rep.msg.(wire.Stats)
		if !ok {
			return wire.Stats{}, errors.New("hub: client: unexpected stats reply")
		}
		return st, nil
	}
}

// Snapshot captures (and persists, when the authority is durable) the
// session snapshot and returns its canonical digest (idempotent; retried
// across reconnects).
func (c *Client) Snapshot(ref uint64) (wire.SnapshotReply, error) {
	s := c.session(ref)
	if s == nil {
		return wire.SnapshotReply{}, errUnknownRef()
	}
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return wire.SnapshotReply{}, err
		}
		serverRef, serr := c.sessionTarget(s)
		if serr != nil {
			return wire.SnapshotReply{}, serr
		}
		rid := c.reqID()
		rep, err := c.roundTripOn(conn, rid, wire.AppendRefReq(c.bufs.get(), wire.MsgSnapshot, rid, serverRef))
		if err != nil {
			if c.retryable(err) {
				continue
			}
			return wire.SnapshotReply{}, err
		}
		snap, ok := rep.msg.(wire.SnapshotReply)
		if !ok {
			return wire.SnapshotReply{}, errors.New("hub: client: unexpected snapshot reply")
		}
		return snap, nil
	}
}

// CloseSession closes and unregisters the session bound to ref. Once a
// close frame has been sent it may have landed whatever became of its
// ack, so from then on — in this call or a later one — finding the
// session gone is success.
func (c *Client) CloseSession(ref uint64) error {
	s := c.session(ref)
	if s == nil {
		return errUnknownRef()
	}
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return err
		}
		c.mu.Lock()
		serverRef, err, sent := s.serverRef, s.err, s.closeSent
		s.closeSent = sent || err == nil
		c.mu.Unlock()
		if err == nil {
			rid := c.reqID()
			_, err = c.roundTripOn(conn, rid, wire.AppendRefReq(c.bufs.get(), wire.MsgCloseSession, rid, serverRef))
		}
		if err != nil {
			if c.retryable(err) {
				continue
			}
			var re *RemoteError
			if !sent || !errors.As(err, &re) || re.Code != wire.CodeNotFound {
				return err
			}
		}
		c.mu.Lock()
		delete(c.sessions, s.ref)
		if c.byServerRef[s.serverRef] == s {
			delete(c.byServerRef, s.serverRef)
		}
		s.sub = nil
		c.mu.Unlock()
		return nil
	}
}
