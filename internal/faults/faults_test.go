package faults

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"gameauthority/internal/store"
)

// playHash is a transcript hash as the store takes one: 64 lowercase hex digits.
const playHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if p.roll(1) {
		t.Fatal("nil plan rolled a fault")
	}
	if p.Injected() != 0 {
		t.Fatal("nil plan counted a fault")
	}
	zero := NewPlan(Config{Seed: 7})
	st := zero.Store(store.NewMem())
	if err := st.CreateSession("s", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := st.Append("s", store.Record{Type: "play", Round: i, Hash: playHash}); err != nil {
			t.Fatalf("zero-config append %d: %v", i, err)
		}
	}
	if got := zero.Injected(); got != 0 {
		t.Fatalf("zero config injected %d faults", got)
	}
}

// TestDeterministicSchedule is the plan's core contract: the same seed
// and config produce the same fault schedule, a different seed a
// different one.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed uint64) []bool {
		p := NewPlan(Config{Seed: seed, AppendFail: 0.3})
		st := p.Store(store.NewMem())
		if err := st.CreateSession("s", nil); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 300)
		for i := range out {
			out[i] = st.Append("s", store.Record{Type: "play", Round: i, Hash: playHash}) != nil
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	faultsA := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at operation %d with the same seed", i)
		}
		if a[i] {
			faultsA++
		}
	}
	if faultsA == 0 || faultsA == len(a) {
		t.Fatalf("rate 0.3 over %d ops injected %d faults", len(a), faultsA)
	}
	other := schedule(43)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestAppendFailDoesNotApply(t *testing.T) {
	inner := store.NewMem()
	p := NewPlan(Config{Seed: 1, AppendFail: 1})
	st := p.Store(inner)
	if err := st.CreateSession("s", nil); err != nil {
		t.Fatal(err)
	}
	err := st.Append("s", store.Record{Type: "play", Round: 0, Hash: playHash})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append error = %v, want ErrInjected", err)
	}
	state, ok, err := inner.LoadSession("s")
	if err != nil || !ok {
		t.Fatalf("LoadSession: ok=%v err=%v", ok, err)
	}
	if len(state.Tail) != 0 {
		t.Fatalf("failed append still applied %d records", len(state.Tail))
	}
}

// TestAppendTornAppliesThenErrors is the lost-ack fault: the record must
// be durably applied even though the caller sees an error, which is what
// forces servers to deduplicate blind retries.
func TestAppendTornAppliesThenErrors(t *testing.T) {
	inner := store.NewMem()
	p := NewPlan(Config{Seed: 1, AppendTorn: 1})
	st := p.Store(inner)
	if err := st.CreateSession("s", nil); err != nil {
		t.Fatal(err)
	}
	err := st.Append("s", store.Record{Type: "play", Round: 0, Hash: playHash})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append error = %v, want ErrInjected", err)
	}
	state, _, err := inner.LoadSession("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Tail) != 1 {
		t.Fatalf("torn append applied %d records, want 1 (applied, ack lost)", len(state.Tail))
	}
}

func TestSnapshotAndSyncFaults(t *testing.T) {
	p := NewPlan(Config{Seed: 1, SnapshotFail: 1, SyncFail: 1})
	st := p.Store(store.NewMem())
	if err := st.CreateSession("s", nil); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot("s", 1, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("snapshot error = %v, want ErrInjected", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error = %v, want ErrInjected", err)
	}
}

// TestReadPathsPassThrough pins the rule that chaos aims only at the
// write paths: reads, creation, and deletion never fault even at rate 1.
func TestReadPathsPassThrough(t *testing.T) {
	inner := store.NewMem()
	p := NewPlan(Config{Seed: 1, AppendFail: 1, SnapshotFail: 1, SyncFail: 1})
	st := p.Store(inner)
	if err := st.CreateSession("s", []byte("{}")); err != nil {
		t.Fatalf("create faulted: %v", err)
	}
	if _, err := st.IDs(); err != nil {
		t.Fatalf("ids faulted: %v", err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatalf("load faulted: %v", err)
	}
	if _, ok, err := st.LoadSession("s"); err != nil || !ok {
		t.Fatalf("load session: ok=%v err=%v", ok, err)
	}
	if _, err := st.Snapshots(); err != nil {
		t.Fatalf("snapshots faulted: %v", err)
	}
	if ok, err := st.(interface{ Has(string) (bool, error) }).Has("s"); err != nil || !ok {
		t.Fatalf("has: ok=%v err=%v", ok, err)
	}
	if err := st.Delete("s"); err != nil {
		t.Fatalf("delete faulted: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close faulted: %v", err)
	}
}

func TestSlowIODelays(t *testing.T) {
	p := NewPlan(Config{Seed: 1, SlowIO: 1, IODelay: 2 * time.Millisecond})
	st := p.Store(store.NewMem())
	if err := st.CreateSession("s", nil); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := st.Append("s", store.Record{Type: "play", Hash: playHash}); err != nil {
		t.Fatalf("slow append still failed: %v", err)
	}
	if d := time.Since(t0); d < 2*time.Millisecond {
		t.Fatalf("slow append took %v, want >= 2ms", d)
	}
	if p.Injected() == 0 {
		t.Fatal("slow I/O not counted as injected")
	}
}

// pipeConn is a minimal in-memory net.Conn whose writes land in a buffer,
// so cut-mid-frame prefixes are observable without real sockets.
type pipeConn struct {
	buf    bytes.Buffer
	closed bool
}

func (c *pipeConn) Read(b []byte) (int, error)  { return c.buf.Read(b) }
func (c *pipeConn) Write(b []byte) (int, error) { return c.buf.Write(b) }
func (c *pipeConn) Close() error                { c.closed = true; return nil }
func (c *pipeConn) LocalAddr() net.Addr         { return nil }
func (c *pipeConn) RemoteAddr() net.Addr        { return nil }
func (c *pipeConn) SetDeadline(time.Time) error { return nil }
func (c *pipeConn) SetReadDeadline(time.Time) error {
	return nil
}
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

func TestConnDrop(t *testing.T) {
	inner := &pipeConn{}
	c := NewPlan(Config{Seed: 1, ConnDrop: 1}).Conn(inner)
	if _, err := c.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	if !inner.closed {
		t.Fatal("dropped connection not closed")
	}
	inner2 := &pipeConn{}
	c2 := NewPlan(Config{Seed: 1, ConnDrop: 1}).Conn(inner2)
	if _, err := c2.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read error = %v, want ErrInjected", err)
	}
	if !inner2.closed {
		t.Fatal("dropped connection not closed on read")
	}
}

// TestConnCutMidFrame checks the half-write: a prefix reaches the wire,
// the connection dies, and the caller learns how much leaked.
func TestConnCutMidFrame(t *testing.T) {
	inner := &pipeConn{}
	c := NewPlan(Config{Seed: 1, ConnCut: 1}).Conn(inner)
	frame := []byte("0123456789")
	n, err := c.Write(frame)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write error = %v, want ErrInjected", err)
	}
	if n != len(frame)/2 || inner.buf.Len() != len(frame)/2 {
		t.Fatalf("cut wrote %d bytes (buffer %d), want %d", n, inner.buf.Len(), len(frame)/2)
	}
	if !inner.closed {
		t.Fatal("cut connection not closed")
	}
	// Single-byte writes cannot be cut (there is no shorter prefix).
	inner2 := &pipeConn{}
	c2 := NewPlan(Config{Seed: 1, ConnCut: 1}).Conn(inner2)
	if _, err := c2.Write([]byte{0xff}); err != nil {
		t.Fatalf("one-byte write should pass: %v", err)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	p := NewPlan(Config{Seed: 1, ConnDrop: 1})
	fl := p.Listener(ln)
	defer fl.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			c.Write([]byte("x"))
			c.Close()
		}
	}()
	conn, err := fl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*faultConn); !ok {
		t.Fatalf("accepted conn is %T, want *faultConn", conn)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on wrapped conn = %v, want ErrInjected", err)
	}
}

func TestCountersMirror(t *testing.T) {
	before := faultsInjected.Value()
	p := NewPlan(Config{Seed: 9, AppendFail: 1})
	st := p.Store(store.NewMem())
	_ = st.CreateSession("s", nil)
	for i := 0; i < 5; i++ {
		_ = st.Append("s", store.Record{Type: "play", Round: i, Hash: playHash})
	}
	if got := p.Injected(); got != 5 {
		t.Fatalf("Injected() = %d, want 5", got)
	}
	if got := faultsInjected.Value() - before; got != 5 {
		t.Fatalf("faults_injected_total moved by %d, want 5", got)
	}
}

func TestStandardConfigs(t *testing.T) {
	d := DiskConfig(3, 0.2)
	if d.Seed != 3 || d.AppendFail != 0.2 || d.AppendTorn != 0.1 || d.SnapshotFail != 0.2 || d.SyncFail != 0.2 || d.SlowIO != 0.2 {
		t.Fatalf("DiskConfig mix wrong: %+v", d)
	}
	n := NetConfig(3, 0.2)
	if n.Seed != 3 || n.Latency != 0.2 || n.ConnDrop != 0.05 || n.ConnCut != 0.05 {
		t.Fatalf("NetConfig mix wrong: %+v", n)
	}
}
