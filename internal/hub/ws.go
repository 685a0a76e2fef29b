package hub

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// WebSocket opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// wsGUID is the fixed handshake GUID from RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// DefaultMaxMessage caps one assembled WebSocket message. Frames are
// small (a batch of wire messages); anything near this limit is abuse.
const DefaultMaxMessage = 4 << 20

// ErrWSClosed reports a clean close handshake from the peer.
var ErrWSClosed = errors.New("hub: websocket closed by peer")

// WSConn is a minimal RFC 6455 connection carrying binary messages. Reads
// must come from a single goroutine; writes are internally locked so the
// read side can answer pings while a writer goroutine streams frames.
type WSConn struct {
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	wmu        chan struct{} // 1-slot write lock, also guards bw and whdr
	client     bool          // mask outgoing frames (client role)
	maxMessage int
	rbuf       []byte    // reassembled message, reused across reads
	rhdr       [8]byte   // reader scratch: frame header, length, mask key
	rctl       [125]byte // reader scratch: one control frame's payload
	whdr       [14]byte  // writer scratch (under wmu)
	wscratch   []byte    // masking scratch (client role, under wmu)
	maskState  uint64    // splitmix64 state for mask keys (under wmu)
	activity   atomic.Uint64
}

func newWSConn(conn net.Conn, br *bufio.Reader, client bool, maxMessage int) *WSConn {
	if maxMessage <= 0 {
		maxMessage = DefaultMaxMessage
	}
	c := &WSConn{
		conn:       conn,
		br:         br,
		bw:         bufio.NewWriterSize(conn, 1<<16),
		wmu:        make(chan struct{}, 1),
		client:     client,
		maxMessage: maxMessage,
	}
	var seed [8]byte
	if _, err := io.ReadFull(cryptoRand, seed[:]); err == nil {
		c.maskState = binary.LittleEndian.Uint64(seed[:])
	}
	c.maskState |= 1
	return c
}

func (c *WSConn) lock()   { c.wmu <- struct{}{} }
func (c *WSConn) unlock() { <-c.wmu }

// Upgrade performs the server side of the opening handshake and hijacks
// the connection. On failure it writes the appropriate HTTP error status
// and returns a non-nil error.
func Upgrade(w http.ResponseWriter, r *http.Request, maxMessage int) (*WSConn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: GET required", http.StatusMethodNotAllowed)
		return nil, errors.New("hub: upgrade: method not GET")
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!headerHasToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "websocket: upgrade required", http.StatusBadRequest)
		return nil, errors.New("hub: upgrade: not a websocket handshake")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "websocket: unsupported version", http.StatusUpgradeRequired)
		return nil, errors.New("hub: upgrade: unsupported version")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing key", http.StatusBadRequest)
		return nil, errors.New("hub: upgrade: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: server does not support hijacking", http.StatusInternalServerError)
		return nil, errors.New("hub: upgrade: response not hijackable")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("hub: upgrade hijack: %w", err)
	}
	conn.SetDeadline(time.Time{})
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hub: upgrade response: %w", err)
	}
	return newWSConn(conn, brw.Reader, false, maxMessage), nil
}

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header contains the
// token (case-insensitive), as required for Connection/Upgrade.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// ReadMessage reads the next data message, transparently answering pings
// and reassembling fragmented messages. The returned payload aliases an
// internal buffer valid until the next ReadMessage.
func (c *WSConn) ReadMessage() (op byte, payload []byte, err error) {
	msg := c.rbuf[:0]
	msgOp := byte(0)
	for {
		hdr := c.rhdr[:2]
		if _, err := io.ReadFull(c.br, hdr); err != nil {
			return 0, nil, err
		}
		// Every frame the peer sends — including pongs, which are
		// otherwise swallowed below — counts as read activity for the
		// keepalive probe.
		c.activity.Add(1)
		fin := hdr[0]&0x80 != 0
		if hdr[0]&0x70 != 0 {
			return 0, nil, errors.New("hub: websocket: nonzero RSV bits")
		}
		frameOp := hdr[0] & 0x0F
		masked := hdr[1]&0x80 != 0
		plen := uint64(hdr[1] & 0x7F)
		switch plen {
		case 126:
			ext := c.rhdr[:2]
			if _, err := io.ReadFull(c.br, ext); err != nil {
				return 0, nil, err
			}
			plen = uint64(binary.BigEndian.Uint16(ext))
		case 127:
			ext := c.rhdr[:8]
			if _, err := io.ReadFull(c.br, ext); err != nil {
				return 0, nil, err
			}
			plen = binary.BigEndian.Uint64(ext)
			if plen>>63 != 0 {
				return 0, nil, errors.New("hub: websocket: invalid frame length")
			}
		}
		// The key is read through the scratch header and copied out: a
		// local array handed to io.ReadFull would escape to the heap on
		// every frame.
		var maskKey [4]byte
		if masked {
			if _, err := io.ReadFull(c.br, c.rhdr[:4]); err != nil {
				return 0, nil, err
			}
			copy(maskKey[:], c.rhdr[:4])
		}

		if frameOp >= opClose { // control frame
			if !fin || plen > 125 {
				return 0, nil, errors.New("hub: websocket: malformed control frame")
			}
			body := c.rctl[:plen]
			if _, err := io.ReadFull(c.br, body); err != nil {
				return 0, nil, err
			}
			if masked {
				maskBytes(body, maskKey, 0)
			}
			switch frameOp {
			case opPing:
				if err := c.writeFrame(opPong, body, true); err != nil {
					return 0, nil, err
				}
			case opPong:
				// ignore
			case opClose:
				c.writeFrame(opClose, body, true) // best-effort echo
				return 0, nil, ErrWSClosed
			default:
				return 0, nil, fmt.Errorf("hub: websocket: unknown control opcode %#x", frameOp)
			}
			continue
		}

		switch frameOp {
		case opContinuation:
			if msgOp == 0 {
				return 0, nil, errors.New("hub: websocket: continuation without start")
			}
		case opText, opBinary:
			if msgOp != 0 {
				return 0, nil, errors.New("hub: websocket: interleaved data frames")
			}
			msgOp = frameOp
		default:
			return 0, nil, fmt.Errorf("hub: websocket: unknown data opcode %#x", frameOp)
		}
		if uint64(len(msg))+plen > uint64(c.maxMessage) {
			return 0, nil, fmt.Errorf("hub: websocket: message exceeds %d bytes", c.maxMessage)
		}
		// Grown, not appended from make([]byte, plen): that idiom skips
		// its allocation only where the compiler rewrites it, not under
		// the race detector.
		start := len(msg)
		msg = slices.Grow(msg, int(plen))[:start+int(plen)]
		if _, err := io.ReadFull(c.br, msg[start:]); err != nil {
			return 0, nil, err
		}
		if masked {
			maskBytes(msg[start:], maskKey, 0)
		}
		if fin {
			c.rbuf = msg
			return msgOp, msg, nil
		}
	}
}

// maskBytes XORs b with the 4-byte key, starting at key offset pos.
func maskBytes(b []byte, key [4]byte, pos int) {
	for i := range b {
		b[i] ^= key[(pos+i)&3]
	}
}

// writeFrame writes one complete frame. flush controls whether the
// buffered writer is flushed afterwards; callers coalescing several
// messages flush once at the end via Flush.
func (c *WSConn) writeFrame(op byte, payload []byte, flush bool) error {
	c.lock()
	defer c.unlock()
	hdr := c.whdr[:0]
	hdr = append(hdr, 0x80|op)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch n := len(payload); {
	case n < 126:
		hdr = append(hdr, maskBit|byte(n))
	case n <= 0xFFFF:
		hdr = append(hdr, maskBit|126)
		hdr = binary.BigEndian.AppendUint16(hdr, uint16(n))
	default:
		hdr = append(hdr, maskBit|127)
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(n))
	}
	var maskKey [4]byte
	if c.client {
		// splitmix64: cheap, seeded from crypto/rand at connect.
		c.maskState += 0x9E3779B97F4A7C15
		z := c.maskState
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint32(maskKey[:], uint32(z^(z>>31)))
		hdr = append(hdr, maskKey[:]...)
	}
	if _, err := c.bw.Write(hdr); err != nil {
		return err
	}
	if c.client {
		// Mask through a scratch buffer so the caller's payload is not
		// clobbered.
		if cap(c.wscratch) < 4096 {
			c.wscratch = make([]byte, 4096)
		}
		scratch := c.wscratch[:4096]
		for off := 0; off < len(payload); off += len(scratch) {
			chunk := payload[off:min(len(payload), off+len(scratch))]
			n := copy(scratch, chunk)
			maskBytes(scratch[:n], maskKey, off)
			if _, err := c.bw.Write(scratch[:n]); err != nil {
				return err
			}
		}
	} else if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	if flush {
		return c.bw.Flush()
	}
	return nil
}

// WriteMessage writes one binary/text message and flushes.
func (c *WSConn) WriteMessage(op byte, payload []byte) error {
	return c.writeFrame(op, payload, true)
}

// WriteMessageNoFlush queues one message in the buffered writer; pair
// with Flush to coalesce several messages into one syscall.
func (c *WSConn) WriteMessageNoFlush(op byte, payload []byte) error {
	return c.writeFrame(op, payload, false)
}

// Flush drains the buffered writer to the connection.
func (c *WSConn) Flush() error {
	c.lock()
	defer c.unlock()
	return c.bw.Flush()
}

// Activity returns a counter of frames read from the peer (including
// control frames such as pongs). A keepalive probe compares successive
// readings: a counter that stops advancing despite pings means the
// connection is half-open.
func (c *WSConn) Activity() uint64 { return c.activity.Load() }

// WritePing sends a ping control frame and flushes. A live peer answers
// with a pong, which shows up as read activity.
func (c *WSConn) WritePing(payload []byte) error {
	return c.writeFrame(opPing, payload, true)
}

// SetReadDeadline bounds the next ReadMessage.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline bounds subsequent writes; a stalled peer surfaces as a
// timeout error on the writer, which closes the connection.
func (c *WSConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// Close sends a best-effort close frame and tears down the connection. It
// is safe to call concurrently with reads and writes.
func (c *WSConn) Close() error {
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	c.writeFrame(opClose, nil, true)
	return c.conn.Close()
}
