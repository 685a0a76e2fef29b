package gameauthority_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
	"gameauthority/internal/invariant"
	"gameauthority/internal/wire"
)

// acceptanceRow is one end-to-end run of the seeded scenario fleet
// (internal/invariant's mix: 13 scenarios, four drivers). Every row is
// held to round accounting, the fault-free twin's digest and the verdict
// rule; the durable rows also to crash recovery, the chaos rows to a
// non-zero injected-fault count and monotone resumed subscriptions.
type acceptanceRow struct {
	name            string
	sessions, plays int
	batch           int     // > 1: PlayN batches of this size
	transport       string  // inproc | http | ws
	conns           int     // ws: connections the fleet is multiplexed over
	deviants        float64 // fraction of sessions carrying a visible deviant in slot 0
	// adversary puts a DropAdversary on processor 1 of every distributed
	// session. A closure has no wire spec, so those sessions alone are
	// built with options.
	adversary bool
	distOnly  bool // the distributed scenarios only
	// durable hosts the fleet on a File store (group-committed when
	// batched) and crashes the host once, mid-run.
	durable bool
	// chaos injects seeded faults under the store and under every client
	// connection of a ws row, and drives it through self-healing clients.
	chaos *chaosRates
}

type chaosRates struct {
	disk, net float64
	// file runs the real group-commit write path: a File store whose
	// fsync epochs coalesce batch records while the disk plan drops and
	// tears them. Otherwise the faulted store is a Mem.
	file bool
}

// The rows, at the sizes CI has always run them: large enough that every
// scenario gets a session and every driver more than one, small enough
// that the whole table costs about a second.
var acceptanceRows = []acceptanceRow{
	{name: "inproc-64x4", sessions: 64, plays: 4, transport: "inproc"},
	{name: "http-16x2", sessions: 16, plays: 2, transport: "http"},
	{name: "inproc-64x4-deviants-adversary", sessions: 64, plays: 4, transport: "inproc", deviants: 0.25, adversary: true},
	{name: "ws-64x4-4conns", sessions: 64, plays: 4, transport: "ws", conns: 4},
	{name: "chaos-disk5-net5-mem-24x6", sessions: 24, plays: 6, transport: "ws", conns: 4,
		chaos: &chaosRates{disk: 0.05, net: 0.05}},
	{name: "chaos-disk20-batch3-file-24x6", sessions: 24, plays: 6, batch: 3, transport: "ws", conns: 4,
		chaos: &chaosRates{disk: 0.2, file: true}},
	{name: "durable-batch4-crash-32x8", sessions: 32, plays: 8, batch: 4, transport: "inproc", durable: true},
	{name: "durable-crash-deviants-48x4", sessions: 48, plays: 4, transport: "inproc", durable: true, deviants: 0.25},
	{name: "dist-only-12x8", sessions: 12, plays: 8, transport: "inproc", distOnly: true},
}

// TestAcceptance is the acceptance table: what used to be nine `go run
// ./cmd/loadgen` smokes, as sub-tests over internal/invariant. Run one
// row with go test -run 'TestAcceptance/<row>' -v .
func TestAcceptance(t *testing.T) {
	for _, row := range acceptanceRows {
		t.Run(row.name, func(t *testing.T) { runAcceptanceRow(t, row) })
	}
}

func runAcceptanceRow(t *testing.T, row acceptanceRow) {
	const seed = 1
	ctx := context.Background()
	mix := invariant.Mix()
	if row.distOnly {
		var dist []invariant.Scenario
		for _, sc := range mix {
			if sc.Driver == "distributed" {
				dist = append(dist, sc)
			}
		}
		mix = dist
	}
	slots, err := invariant.Fleet(mix, row.sessions, row.plays, seed, row.deviants, invariant.VisibleDeviants)
	if err != nil {
		t.Fatal(err)
	}

	// The host: volatile, durable, or faulted.
	var hostOpts []ga.AuthorityOption
	var diskPlan, netPlan *ga.FaultPlan
	if row.durable || (row.chaos != nil && row.chaos.file) {
		st, err := ga.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		hostOpts = append(hostOpts, ga.WithStore(st))
		if row.batch > 1 {
			// Appends from every session coalesce into shared commit
			// epochs; the window only arms the committer.
			hostOpts = append(hostOpts, ga.WithGroupCommit(time.Millisecond, 256))
		}
	}
	if row.chaos != nil {
		if !row.chaos.file {
			hostOpts = append(hostOpts, ga.WithStore(ga.NewMemStore()))
		}
		diskPlan = ga.NewFaultPlan(ga.DiskFaultConfig(seed, row.chaos.disk))
		netPlan = ga.NewFaultPlan(ga.NetFaultConfig(seed, row.chaos.net))
		hostOpts = append(hostOpts, ga.WithFaultPlan(diskPlan))
	}

	// The transport in front of it.
	var tr invariant.Transport
	inproc := invariant.NewInProc(hostOpts...)
	switch row.transport {
	case "inproc":
		tr = inproc
	default:
		defer inproc.Close()
		srv := httptest.NewServer(ga.NewServer(inproc.Authority))
		defer srv.Close()
		switch {
		case row.chaos != nil:
			tr, err = dialHealing(srv.URL, row.conns, seed, netPlan)
		case row.transport == "ws":
			tr, err = invariant.NewWS(srv.URL, row.conns)
		default:
			tr = invariant.NewHTTP(srv.URL)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	defer tr.Close()

	// Create the fleet, all at once. Adversary-carrying sessions are the
	// one kind built with options; they join the fleet as adopted players.
	fromSpec := slots
	var withAdversary []*invariant.Slot
	if row.adversary {
		fromSpec = nil
		for _, s := range slots {
			if s.Spec.Distributed == nil {
				fromSpec = append(fromSpec, s)
				continue
			}
			h, err := adversarySession(inproc.Authority, s.Spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Player = inproc.Adopt(h)
			withAdversary = append(withAdversary, s)
		}
		if len(withAdversary) == 0 {
			t.Fatal("the mix gave the adversary row no distributed session")
		}
	}
	if err := invariant.Create(fromSpec, tr); err != nil {
		t.Fatal(err)
	}

	// A quarter of a chaos fleet also streams events, so subscriptions
	// are resumed across the reconnects the network plan forces.
	var watches []*invariant.SeqWatch
	if row.chaos != nil {
		for k := 0; k < len(slots); k += 4 {
			w := &invariant.SeqWatch{}
			p := slots[k].Player.(*healingPlayer)
			if err := p.Client.Subscribe(p.Ref, w.Handle); err != nil {
				t.Fatalf("subscribe %s: %v", slots[k].Spec.ID, err)
			}
			watches = append(watches, w)
		}
	}

	// Play, every session concurrently. A durable row plays half its
	// budget, loses its host to a SIGKILL-style crash, and must find
	// every session back at the round and digest it had acknowledged
	// before it plays the other half.
	segments := 1
	if row.durable {
		segments = 2
	}
	for seg := 1; seg <= segments; seg++ {
		if err := invariant.Play(ctx, slots, row.batch, seg, segments, nil); err != nil {
			t.Fatal(err)
		}
		if seg == segments {
			break
		}
		acknowledged := make([]invariant.State, len(slots))
		for k, s := range slots {
			if acknowledged[k], err = s.Player.State(); err != nil {
				t.Fatal(err)
			}
		}
		report, err := inproc.CrashRecover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if report.Sessions != len(slots) {
			t.Fatalf("recovered %d of %d sessions", report.Sessions, len(slots))
		}
		for k, s := range slots {
			recovered, err := s.Player.State()
			if err == nil {
				err = invariant.CheckRecovered(acknowledged[k], recovered)
			}
			if err != nil {
				t.Errorf("%s: %v", s.Spec.ID, err)
			}
		}
		t.Logf("crash: %d sessions recovered, %d rounds replayed in %v", report.Sessions, report.Rounds, report.Elapsed)
	}

	// Audit: round accounting, twin digest, verdict rule.
	if err := invariant.Audit(ctx, fromSpec); err != nil {
		t.Error(err)
	}
	for _, s := range withAdversary {
		if err := auditAdversarySession(ctx, inproc.Authority, s); err != nil {
			t.Errorf("%s: %v", s.Spec.ID, err)
		}
	}
	for _, s := range slots {
		if err := s.Player.Close(); err != nil {
			t.Errorf("close %s: %v", s.Spec.ID, err)
		}
	}

	if row.chaos != nil {
		var events uint64
		for _, w := range watches {
			if err := w.Check(); err != nil {
				t.Error(err)
			}
			events += w.Delivered()
		}
		if events == 0 {
			t.Error("no subscription delivered an event")
		}
		faults := diskPlan.Injected() + netPlan.Injected()
		if faults == 0 {
			t.Error("the fault plans injected nothing: the row proved no healing")
		}
		var cc hub.ClientCounters
		for _, c := range tr.(*healingWS).clients {
			got := c.Counters()
			cc.Reconnects += got.Reconnects
			cc.ResumedSubscriptions += got.ResumedSubscriptions
			cc.DedupedRounds += got.DedupedRounds
		}
		t.Logf("chaos: %d faults injected, %d reconnects, %d resumed subscriptions, %d deduped rounds, %d events streamed",
			faults, cc.Reconnects, cc.ResumedSubscriptions, cc.DedupedRounds, events)
	}
}

// adversarySession builds spec's distributed session with options, as
// the spec translation would, plus the one thing a spec cannot carry:
// processor 1 (never the deviant's slot 0) drops a third of its traffic —
// inside the f-tolerance, so plays still complete while the network
// misbehaves.
func adversarySession(a *ga.Authority, spec ga.CreateSessionRequest) (*ga.HostedSession, error) {
	var g ga.Game
	var err error
	if spec.Game == "publicgoods" {
		g, err = ga.PublicGoods(spec.Players, 2)
	} else if e, ok := ga.ScenarioByName(spec.Game); ok {
		g, err = e.Build(e.Players(spec.Players))
	} else {
		err = fmt.Errorf("unknown game %q", spec.Game)
	}
	if err != nil {
		return nil, err
	}
	opts := []ga.Option{
		ga.WithSeed(spec.Seed),
		ga.WithHistoryLimit(spec.HistoryLimit),
		ga.WithDistributed(spec.Distributed.N, spec.Distributed.F, nil),
		ga.WithPulseBudget(spec.PulseBudget),
		ga.WithNetworkAdversary(1, ga.DropAdversary(spec.Seed, 0.3)),
	}
	if spec.Deviant != nil {
		strategy, ok := ga.DeviantByName(spec.Deviant.Strategy)
		if !ok {
			return nil, fmt.Errorf("unknown deviant strategy %q", spec.Deviant.Strategy)
		}
		opts = append(opts, ga.WithDeviant(spec.Deviant.Player, strategy))
	}
	return a.Create(spec.ID, g, opts...)
}

// auditAdversarySession is invariant.Audit for a session built with
// options: its twin is grown the same way, alone on a fresh host. The
// verdict rule reads differently here, because processor 1 is Byzantine:
// the judiciary may convict it for the reveals it drops, so what must hold
// is that a deviant in slot 0 is convicted and nobody else ever is.
func auditAdversarySession(ctx context.Context, a *ga.Authority, s *invariant.Slot) error {
	h, err := a.Get(s.Spec.ID)
	if err != nil {
		return err
	}
	got := invariant.StateOf(h)
	twinSpec := s.Spec
	twinSpec.ID = ""
	twin, err := adversarySession(ga.NewAuthority(), twinSpec)
	if err != nil {
		return err
	}
	defer twin.Close()
	if _, err := twin.Run(ctx, got.Rounds); err != nil {
		return err
	}
	err = errors.Join(
		invariant.CheckRounds(s.Acked, got, s.Plays),
		invariant.CheckTwinState(invariant.StateOf(twin), got))
	for proc, out := range h.Stats().Excluded {
		switch {
		case proc == 0 && out != (s.Spec.Deviant != nil):
			err = errors.Join(err, fmt.Errorf("slot 0 excluded: %v, carries a deviant: %v", out, s.Spec.Deviant != nil))
		case proc > 1 && out:
			err = errors.Join(err, fmt.Errorf("%w: processor %d is neither deviant nor Byzantine", invariant.ErrHonestFouled, proc))
		}
	}
	return err
}

// --- The self-healing transport of the chaos rows --------------------------------

// healRetryCap bounds consecutive no-progress retries of one command
// before a row is declared stuck; each retry sleeps healRetryPause, so the
// cap is also a per-command time budget that comfortably spans breaker
// cool-downs.
const (
	healRetryCap   = 2000
	healRetryPause = 5 * time.Millisecond
)

// healingWS is invariant.WS over self-healing clients whose connections a
// seeded network plan cuts, stalls and corrupts.
type healingWS struct {
	clients []*hub.Client
	next    atomic.Uint64
}

// dialHealing dials conns reconnecting clients, retrying the dial itself:
// the plan wraps the raw connection, so even the opening handshake can be
// cut.
func dialHealing(base string, conns int, seed uint64, netPlan *ga.FaultPlan) (*healingWS, error) {
	t := &healingWS{}
	for i := 0; i < conns; i++ {
		opts := hub.DialOptions{
			Reconnect:        true,
			ConnectTimeout:   5 * time.Second,
			HandshakeTimeout: 5 * time.Second,
			BackoffMin:       5 * time.Millisecond,
			BackoffMax:       250 * time.Millisecond,
			PingInterval:     time.Second,
			Seed:             seed + uint64(i),
			WrapConn:         netPlan.Conn,
		}
		var c *hub.Client
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			if c, err = hub.DialWith(base+"/ws", opts); err == nil {
				break
			}
			time.Sleep(healRetryPause)
		}
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("ws dial: %w", err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

// Create hosts the session. Create is not idempotent: when a cut
// connection loses the ack, the session may have landed anyway, so a
// CodeExists on retry (or a lost-connection error) falls back to Attach.
func (t *healingWS) Create(spec ga.CreateSessionRequest) (invariant.Player, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	p := &healingPlayer{invariant.WSPlayer{Client: t.clients[int(t.next.Add(1))%len(t.clients)]}}
	err = heal(func() error {
		ref, _, err := p.Client.Create(body)
		if err == nil {
			p.Ref = ref
			return nil
		}
		var re *hub.RemoteError
		if errors.Is(err, hub.ErrConnLost) || (errors.As(err, &re) && re.Code == wire.CodeExists) {
			ref, aerr := p.Client.Attach(spec.ID)
			if aerr == nil {
				p.Ref = ref
				return nil
			}
			var are *hub.RemoteError
			if !errors.As(aerr, &are) || are.Code != wire.CodeNotFound {
				return aerr
			}
			// Attach says the create never landed: retry the create.
			return &hub.RemoteError{Code: wire.CodeUnavailable, Detail: "create ack lost"}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (t *healingWS) Close() error {
	for _, c := range t.clients {
		c.Close()
	}
	return nil
}

// transient reports whether err is an expected, retryable casualty: an
// injected durability failure, an open circuit breaker, or a connection
// that died before the reply.
func transient(err error) bool {
	if errors.Is(err, hub.ErrConnLost) {
		return true
	}
	var re *hub.RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeUnavailable || re.Code == wire.CodeBreakerOpen
	}
	return false
}

// heal runs op until it succeeds, fails for good, or exhausts the
// no-progress cap.
func heal(op func() error) error {
	var err error
	for attempt := 0; attempt < healRetryCap; attempt++ {
		if err = op(); err == nil || !transient(err) {
			return err
		}
		time.Sleep(healRetryPause)
	}
	return fmt.Errorf("gave up after %d attempts: %w", healRetryCap, err)
}

// healingPlayer retries what the faults break. A play is retried until it
// makes progress: whatever completed is acknowledged (the caller asks for
// the rest), and the session's round watermark makes the retry
// idempotent, batched or not.
type healingPlayer struct{ invariant.WSPlayer }

func (p *healingPlayer) Play(ctx context.Context, n int) (ack invariant.Ack, err error) {
	err = heal(func() error {
		ack, err = p.WSPlayer.Play(ctx, n)
		if ack.Completed > 0 {
			return nil
		}
		if err == nil {
			return &hub.RemoteError{Code: wire.CodeUnavailable, Detail: "play made no progress"}
		}
		return err
	})
	return ack, err
}

func (p *healingPlayer) State() (st invariant.State, err error) {
	err = heal(func() error {
		st, err = p.WSPlayer.State()
		return err
	})
	return st, err
}

func (p *healingPlayer) Close() error { return heal(p.WSPlayer.Close) }
