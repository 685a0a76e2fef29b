package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Version is the protocol version exchanged in Hello/Welcome. A server
// refuses clients speaking a different major version.
//
// Version 2 added reconnect/resume support: Hello carries a flags word
// (FlagReconnect), Play carries an Expect watermark for idempotent
// retries, Subscribe carries a Since resume token, Created reports the
// session's completed rounds, events carry per-session sequence numbers,
// and the results trailer reports how many rounds were deduplicated.
const Version = 2

// MaxPayload bounds any single length-prefixed field (spec JSON, detail
// strings). Anything larger is malformed.
const MaxPayload = 1 << 22

// Message type bytes. Client→server commands sit below 0x40, server→client
// replies and pushes at 0x40 and above.
const (
	MsgHello        byte = 0x01 // version, flags
	MsgCreate       byte = 0x02 // reqID, spec JSON bytes
	MsgAttach       byte = 0x03 // reqID, session id
	MsgPlay         byte = 0x04 // reqID, ref, rounds, expect
	MsgSubscribe    byte = 0x05 // reqID, ref, since
	MsgUnsubscribe  byte = 0x06 // reqID, ref
	MsgCloseSession byte = 0x07 // reqID, ref
	MsgStats        byte = 0x08 // reqID, ref
	MsgSnapshot     byte = 0x09 // reqID, ref
	MsgPlayBatch    byte = 0x0A // reserved: a protocol-v1 peer's second spelling of MsgPlay, same body

	MsgWelcome       byte = 0x40 // version, shards
	MsgCreated       byte = 0x41 // reqID, ref, session id, rounds
	MsgResults       byte = 0x42 // reqID, ref, results stream, errCode, errMsg, deduped
	MsgError         byte = 0x43 // reqID, code, detail
	MsgOK            byte = 0x44 // reqID
	MsgStatsReply    byte = 0x45 // reqID, stats
	MsgSnapshotReply byte = 0x46 // reqID, rounds, digest, persisted
	MsgEvent         byte = 0x47 // ref, seq, delta-encoded event
	MsgLag           byte = 0x48 // ref, dropped count
)

// Hello flag bits.
const (
	// FlagReconnect marks a Hello sent by a client re-dialing after a
	// connection loss, so the server can count reconnects distinctly from
	// first connections.
	FlagReconnect uint64 = 1 << 0
)

// Error codes carried by MsgError and the MsgResults trailer.
const (
	CodeOK          uint64 = 0
	CodeBadRequest  uint64 = 1
	CodeNotFound    uint64 = 2
	CodeExists      uint64 = 3
	CodeUnavailable uint64 = 4
	CodeInternal    uint64 = 5
	CodeClosed      uint64 = 6
	// CodeBreakerOpen: the session's circuit breaker is open after
	// repeated store failures; the command was refused without touching
	// the session. Retry after the breaker's cool-down.
	CodeBreakerOpen uint64 = 7
)

// ErrMalformed is the sticky Decoder error for any out-of-bounds,
// overlong, or otherwise invalid input.
var ErrMalformed = errors.New("wire: malformed message")

// ---------------------------------------------------------------------------
// Append primitives. All encoders append into a caller-owned buffer and
// return the extended slice; none allocate beyond the buffer's own growth.

// AppendUvarint appends v in unsigned-varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendInt(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendFloat(dst, v)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Decoder: a bounds-checked cursor over one frame. Every accessor returns a
// zero value once the sticky error is set; callers check Err (or the error
// returned by the per-message Decode helpers) after decoding a message.
// Returned byte and element slices alias either the input frame or
// decoder-owned scratch, valid until the next decode call.

type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps one frame (the payload of a binary WebSocket message).
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Len reports the undecoded bytes remaining.
func (d *Decoder) Len() int { return len(d.b) }

// Err reports the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
	d.b = nil
}

// Byte consumes one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint consumes one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int consumes one unsigned varint that must fit a non-negative int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt64/2 {
		d.fail()
		return 0
	}
	return int(v)
}

// Float consumes one fixed 8-byte little-endian float64.
func (d *Decoder) Float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes consumes a length-prefixed byte string; the result aliases the
// frame.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxPayload || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String consumes a length-prefixed string (copied out of the frame).
func (d *Decoder) String() string { return string(d.Bytes()) }

// Ints consumes a count-prefixed varint slice into dst[:0]. The count is
// bounded by the bytes remaining, so malformed input cannot force a large
// allocation.
func (d *Decoder) Ints(dst []int) []int {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) { // each element is at least one byte
		d.fail()
		return nil
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		dst = append(dst, d.Int())
		if d.err != nil {
			return nil
		}
	}
	return dst
}

// Floats consumes a count-prefixed float64 slice into dst[:0].
func (d *Decoder) Floats(dst []float64) []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))/8 {
		d.fail()
		return nil
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		dst = append(dst, d.Float())
		if d.err != nil {
			return nil
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Handshake and command messages. Each Append* writes the type byte and
// body; each Decode* assumes the caller already consumed the type byte.

// Hello is the client's opening message.
type Hello struct{ Version, Flags uint64 }

// AppendHello encodes a MsgHello.
func AppendHello(dst []byte, version, flags uint64) []byte {
	dst = append(dst, MsgHello)
	dst = AppendUvarint(dst, version)
	return AppendUvarint(dst, flags)
}

// DecodeHello decodes a MsgHello body.
func DecodeHello(d *Decoder) (Hello, error) {
	h := Hello{Version: d.Uvarint(), Flags: d.Uvarint()}
	return h, d.Err()
}

// Welcome is the server's reply to Hello.
type Welcome struct{ Version, Shards uint64 }

// AppendWelcome encodes a MsgWelcome.
func AppendWelcome(dst []byte, version, shards uint64) []byte {
	dst = append(dst, MsgWelcome)
	dst = AppendUvarint(dst, version)
	return AppendUvarint(dst, shards)
}

// DecodeWelcome decodes a MsgWelcome body.
func DecodeWelcome(d *Decoder) (Welcome, error) {
	w := Welcome{Version: d.Uvarint(), Shards: d.Uvarint()}
	return w, d.Err()
}

// Create asks the server to host a session from a JSON spec (the same
// CreateSessionRequest document the HTTP API accepts; create is the cold
// path, so JSON inside the binary frame keeps one canonical spec format).
type Create struct {
	ReqID uint64
	Spec  []byte
}

// AppendCreate encodes a MsgCreate.
func AppendCreate(dst []byte, reqID uint64, spec []byte) []byte {
	dst = append(dst, MsgCreate)
	dst = AppendUvarint(dst, reqID)
	return appendBytes(dst, spec)
}

// DecodeCreate decodes a MsgCreate body. Spec aliases the frame.
func DecodeCreate(d *Decoder) (Create, error) {
	c := Create{ReqID: d.Uvarint(), Spec: d.Bytes()}
	return c, d.Err()
}

// Attach binds a connection-local ref to an existing session by id.
type Attach struct {
	ReqID uint64
	ID    string
}

// AppendAttach encodes a MsgAttach.
func AppendAttach(dst []byte, reqID uint64, id string) []byte {
	dst = append(dst, MsgAttach)
	dst = AppendUvarint(dst, reqID)
	return appendString(dst, id)
}

// DecodeAttach decodes a MsgAttach body.
func DecodeAttach(d *Decoder) (Attach, error) {
	a := Attach{ReqID: d.Uvarint(), ID: d.String()}
	return a, d.Err()
}

// Play runs up to Rounds plays on the session bound to Ref. Expect is an
// idempotency watermark: zero means "no expectation" (always play fresh
// rounds); a non-zero value encodes expectedRounds+1, the number of
// completed rounds the client believes the session has. When the session
// is already ahead of the expectation — a retried command whose original
// was applied before the connection died — the server replays the
// already-journaled results for the overlap instead of double-playing.
type Play struct{ ReqID, Ref, Rounds, Expect uint64 }

// AppendPlay encodes a MsgPlay.
func AppendPlay(dst []byte, reqID, ref, rounds, expect uint64) []byte {
	dst = append(dst, MsgPlay)
	dst = AppendUvarint(dst, reqID)
	dst = AppendUvarint(dst, ref)
	dst = AppendUvarint(dst, rounds)
	return AppendUvarint(dst, expect)
}

// DecodePlay decodes a MsgPlay body (the reserved opcode 0x0A carries
// the same one).
func DecodePlay(d *Decoder) (Play, error) {
	p := Play{ReqID: d.Uvarint(), Ref: d.Uvarint(), Rounds: d.Uvarint(), Expect: d.Uvarint()}
	return p, d.Err()
}

// Subscribe attaches an event stream to the session bound to Ref. Since
// is a resume token: zero asks for a fresh subscription; a non-zero
// value encodes lastSeq+1, the sequence number after the last event the
// client saw before losing its connection. The stream always restarts
// with a full-state (non-delta) event, so a resumed decoder never sees a
// delta against state it missed.
type Subscribe struct{ ReqID, Ref, Since uint64 }

// AppendSubscribe encodes a MsgSubscribe.
func AppendSubscribe(dst []byte, reqID, ref, since uint64) []byte {
	dst = append(dst, MsgSubscribe)
	dst = AppendUvarint(dst, reqID)
	dst = AppendUvarint(dst, ref)
	return AppendUvarint(dst, since)
}

// DecodeSubscribe decodes a MsgSubscribe body.
func DecodeSubscribe(d *Decoder) (Subscribe, error) {
	s := Subscribe{ReqID: d.Uvarint(), Ref: d.Uvarint(), Since: d.Uvarint()}
	return s, d.Err()
}

// RefReq is the shared shape of Unsubscribe, CloseSession, Stats, and
// Snapshot commands: a request id and a session ref.
type RefReq struct{ ReqID, Ref uint64 }

// AppendRefReq encodes one of the ref-only commands under the given type.
func AppendRefReq(dst []byte, typ byte, reqID, ref uint64) []byte {
	dst = append(dst, typ)
	dst = AppendUvarint(dst, reqID)
	return AppendUvarint(dst, ref)
}

// DecodeRefReq decodes a ref-only command body.
func DecodeRefReq(d *Decoder) (RefReq, error) {
	r := RefReq{ReqID: d.Uvarint(), Ref: d.Uvarint()}
	return r, d.Err()
}

// ---------------------------------------------------------------------------
// Replies.

// Created acknowledges Create/Attach with the assigned ref. Rounds is
// the session's completed-round count at bind time, seeding the client's
// idempotency watermark (see Play.Expect).
type Created struct {
	ReqID, Ref uint64
	ID         string
	Rounds     uint64
}

// AppendCreated encodes a MsgCreated.
func AppendCreated(dst []byte, reqID, ref uint64, id string, rounds uint64) []byte {
	dst = append(dst, MsgCreated)
	dst = AppendUvarint(dst, reqID)
	dst = AppendUvarint(dst, ref)
	dst = appendString(dst, id)
	return AppendUvarint(dst, rounds)
}

// DecodeCreated decodes a MsgCreated body.
func DecodeCreated(d *Decoder) (Created, error) {
	c := Created{ReqID: d.Uvarint(), Ref: d.Uvarint(), ID: d.String()}
	c.Rounds = d.Uvarint()
	return c, d.Err()
}

// ErrorMsg reports a failed command.
type ErrorMsg struct {
	ReqID, Code uint64
	Detail      string
}

// AppendError encodes a MsgError.
func AppendError(dst []byte, reqID, code uint64, detail string) []byte {
	dst = append(dst, MsgError)
	dst = AppendUvarint(dst, reqID)
	dst = AppendUvarint(dst, code)
	return appendString(dst, detail)
}

// DecodeError decodes a MsgError body.
func DecodeError(d *Decoder) (ErrorMsg, error) {
	e := ErrorMsg{ReqID: d.Uvarint(), Code: d.Uvarint(), Detail: d.String()}
	return e, d.Err()
}

// OK acknowledges a command with no payload (subscribe, unsubscribe,
// close).
type OK struct{ ReqID uint64 }

// AppendOK encodes a MsgOK.
func AppendOK(dst []byte, reqID uint64) []byte {
	dst = append(dst, MsgOK)
	return AppendUvarint(dst, reqID)
}

// DecodeOK decodes a MsgOK body.
func DecodeOK(d *Decoder) (OK, error) {
	o := OK{ReqID: d.Uvarint()}
	return o, d.Err()
}

// SnapshotReply carries the canonical digest of a session snapshot.
type SnapshotReply struct {
	ReqID     uint64
	Rounds    uint64
	Digest    string
	Persisted bool
}

// AppendSnapshotReply encodes a MsgSnapshotReply.
func AppendSnapshotReply(dst []byte, reqID, rounds uint64, digest string, persisted bool) []byte {
	dst = append(dst, MsgSnapshotReply)
	dst = AppendUvarint(dst, reqID)
	dst = AppendUvarint(dst, rounds)
	dst = appendString(dst, digest)
	p := byte(0)
	if persisted {
		p = 1
	}
	return append(dst, p)
}

// DecodeSnapshotReply decodes a MsgSnapshotReply body.
func DecodeSnapshotReply(d *Decoder) (SnapshotReply, error) {
	s := SnapshotReply{ReqID: d.Uvarint(), Rounds: d.Uvarint(), Digest: d.String()}
	s.Persisted = d.Byte() != 0
	return s, d.Err()
}

// Lag tells a subscriber how many events were dropped on its ref since
// the last delivered event. The next event after a lag is always encoded
// in full.
type Lag struct{ Ref, Dropped uint64 }

// AppendLag encodes a MsgLag.
func AppendLag(dst []byte, ref, dropped uint64) []byte {
	dst = append(dst, MsgLag)
	dst = AppendUvarint(dst, ref)
	return AppendUvarint(dst, dropped)
}

// DecodeLag decodes a MsgLag body.
func DecodeLag(d *Decoder) (Lag, error) {
	l := Lag{Ref: d.Uvarint(), Dropped: d.Uvarint()}
	return l, d.Err()
}
