package hub

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// pipePair wires a server-role and client-role WSConn over net.Pipe.
func pipePair(t *testing.T, maxMessage int) (server, client *WSConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newWSConn(a, newConnReader(a), false, maxMessage),
		newWSConn(b, newConnReader(b), true, maxMessage)
}

// TestAcceptKey pins the RFC 6455 §1.3 sample handshake value.
func TestAcceptKey(t *testing.T) {
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	if got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("acceptKey = %q", got)
	}
}

// TestWSRoundTripSizes crosses every frame-length encoding (7-bit,
// 16-bit, 64-bit) in both directions. Client-role frames are masked;
// a round trip proves mask/unmask agree.
func TestWSRoundTripSizes(t *testing.T) {
	server, client := pipePair(t, 0)
	sizes := []int{0, 1, 125, 126, 4096, 65535, 65536, 200_000}
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, dir := range []struct {
			name string
			from *WSConn
			to   *WSConn
		}{{"client->server", client, server}, {"server->client", server, client}} {
			errc := make(chan error, 1)
			go func() { errc <- dir.from.WriteMessage(opBinary, payload) }()
			op, got, err := dir.to.ReadMessage()
			if err != nil {
				t.Fatalf("%s size %d: read: %v", dir.name, n, err)
			}
			if op != opBinary || !bytes.Equal(got, payload) {
				t.Fatalf("%s size %d: op %#x, payload mismatch (%d bytes)", dir.name, n, op, len(got))
			}
			if err := <-errc; err != nil {
				t.Fatalf("%s size %d: write: %v", dir.name, n, err)
			}
		}
	}
}

// loopConn is an in-memory net.Conn whose reads replay script forever
// and whose writes are counted and dropped.
type loopConn struct {
	net.Conn
	script  []byte
	pos     int
	written int
	lastOp  byte // the opcode of the last frame written
}

func (c *loopConn) Read(b []byte) (int, error) {
	n := copy(b, c.script[c.pos:])
	c.pos = (c.pos + n) % len(c.script)
	return n, nil
}

func (c *loopConn) Write(b []byte) (int, error) {
	c.written += len(b)
	c.lastOp = b[0] & 0x0F
	return len(b), nil
}

// TestWSReadAllocatesNothing: reading works in the connection's scratch.
// A masked binary frame, a masked ping (answered with a pong) and another
// binary frame allocate nothing — the client's keepalive pings and every
// masked request frame a server reads take this path.
func TestWSReadAllocatesNothing(t *testing.T) {
	key := [4]byte{0x11, 0x22, 0x33, 0x44}
	frame := func(op byte, payload string) []byte {
		b := []byte(payload)
		maskBytes(b, key, 0)
		return append(append([]byte{0x80 | op, 0x80 | byte(len(b))}, key[:]...), b...)
	}
	var script []byte
	script = append(script, frame(opBinary, "first")...)
	script = append(script, frame(opPing, "keepalive")...)
	script = append(script, frame(opBinary, "second")...)
	conn := &loopConn{script: script}
	server := newWSConn(conn, newConnReader(conn), false, 0)
	read := func(want string) {
		op, payload, err := server.ReadMessage()
		if err != nil || op != opBinary || string(payload) != want {
			t.Fatalf("read op %#x payload %q err %v, want binary %q", op, payload, err, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		read("first")
		read("second")
	})
	if allocs != 0 {
		t.Fatalf("reading a data frame and a ping allocates %v times, want 0", allocs)
	}
	if conn.written == 0 || conn.lastOp != opPong {
		t.Fatalf("ping not answered: %d bytes written, last opcode %#x", conn.written, conn.lastOp)
	}
}

// TestWSFragmentation feeds a hand-built fragmented message — with a ping
// interleaved between fragments — and expects one reassembled message and
// an automatic pong.
func TestWSFragmentation(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	server := newWSConn(a, newConnReader(a), false, 0)

	// Client-to-server frames must set the mask bit; an all-zero key makes
	// masking the identity, keeping the raw bytes legible.
	mask := []byte{0, 0, 0, 0}
	var raw []byte
	raw = append(raw, 0x02, 0x80|3) // binary, no FIN, masked, len 3
	raw = append(raw, mask...)
	raw = append(raw, 'f', 'o', 'o')
	raw = append(raw, 0x89, 0x80|2) // ping, FIN, masked, len 2
	raw = append(raw, mask...)
	raw = append(raw, 'h', 'i')
	raw = append(raw, 0x80, 0x80|3) // continuation, FIN, masked, len 3
	raw = append(raw, mask...)
	raw = append(raw, 'b', 'a', 'r')

	type result struct {
		pong []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		if _, err := b.Write(raw); err != nil {
			resc <- result{nil, err}
			return
		}
		// The server answers the ping before reading the continuation.
		pong := make([]byte, 4) // unmasked: 2-byte header + "hi"
		_, err := io.ReadFull(b, pong)
		resc <- result{pong, err}
	}()

	op, payload, err := server.ReadMessage()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if op != opBinary || string(payload) != "foobar" {
		t.Fatalf("op %#x payload %q", op, payload)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("raw peer: %v", r.err)
	}
	if r.pong[0] != 0x80|opPong || r.pong[1] != 2 || string(r.pong[2:]) != "hi" {
		t.Fatalf("pong frame = % x", r.pong)
	}
}

// TestWSCloseHandshake: a peer Close surfaces as ErrWSClosed on the
// reader, not as a protocol error.
func TestWSCloseHandshake(t *testing.T) {
	server, client := pipePair(t, 0)
	go client.Close()
	_, _, err := server.ReadMessage()
	if !errors.Is(err, ErrWSClosed) {
		t.Fatalf("err = %v, want ErrWSClosed", err)
	}
}

// TestWSMaxMessage: a frame advertising more than maxMessage fails before
// the payload is buffered.
func TestWSMaxMessage(t *testing.T) {
	server, client := pipePair(t, 16)
	go client.WriteMessage(opBinary, make([]byte, 64)) // blocks, then errors on close
	_, _, err := server.ReadMessage()
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want size cap error", err)
	}
}

// TestWSProtocolErrors: RSV bits and unknown opcodes kill the connection.
func TestWSProtocolErrors(t *testing.T) {
	cases := map[string][]byte{
		"rsv bits":           {0xC2, 0x80, 0, 0, 0, 0},          // RSV1 set
		"unknown data op":    {0x83, 0x80, 0, 0, 0, 0},          // opcode 0x3
		"bare continuation":  {0x80, 0x80 | 1, 0, 0, 0, 0, 'x'}, // continuation without start
		"fragmented control": {0x08, 0x80, 0, 0, 0, 0},          // close without FIN
	}
	for name, raw := range cases {
		a, b := net.Pipe()
		server := newWSConn(a, newConnReader(a), false, 0)
		go b.Write(raw)
		_, _, err := server.ReadMessage()
		if err == nil || errors.Is(err, ErrWSClosed) {
			t.Errorf("%s: err = %v, want protocol error", name, err)
		}
		a.Close()
		b.Close()
	}
}

// TestUpgradeRejects covers the handshake's error paths; the success path
// is exercised by TestClientHandshake and every hub integration test.
func TestUpgradeRejects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r, 0); err == nil {
			t.Error("Upgrade accepted a bad handshake")
		}
	}))
	defer srv.Close()

	do := func(build func(*http.Request)) int {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		build(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do(func(r *http.Request) { r.Method = http.MethodPost }); code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", code)
	}
	if code := do(func(r *http.Request) {}); code != http.StatusBadRequest {
		t.Errorf("plain GET: status %d", code)
	}
	if code := do(func(r *http.Request) {
		r.Header.Set("Connection", "Upgrade")
		r.Header.Set("Upgrade", "websocket")
		r.Header.Set("Sec-WebSocket-Version", "12")
	}); code != http.StatusUpgradeRequired {
		t.Errorf("bad version: status %d", code)
	}
	if code := do(func(r *http.Request) {
		r.Header.Set("Connection", "Upgrade")
		r.Header.Set("Upgrade", "websocket")
		r.Header.Set("Sec-WebSocket-Version", "13")
	}); code != http.StatusBadRequest {
		t.Errorf("missing key: status %d", code)
	}
}

// TestClientHandshake runs the real opening handshake — client side
// against Upgrade — then echoes one message through both roles.
func TestClientHandshake(t *testing.T) {
	ready := make(chan *WSConn, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r, 0)
		if err != nil {
			t.Errorf("Upgrade: %v", err)
			return
		}
		ready <- ws
		op, payload, err := ws.ReadMessage()
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		ws.WriteMessage(op, payload)
	}))
	defer srv.Close()

	host := strings.TrimPrefix(srv.URL, "http://")
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := clientHandshake(conn, host, "/ws", 5*time.Second)
	if err != nil {
		t.Fatalf("clientHandshake: %v", err)
	}
	if err := client.WriteMessage(opBinary, []byte("echo me")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != opBinary || string(payload) != "echo me" {
		t.Fatalf("op %#x payload %q", op, payload)
	}
	(<-ready).Close()
}
