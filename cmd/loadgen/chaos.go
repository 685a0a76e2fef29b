package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
	"gameauthority/internal/wire"
)

// Chaos acceptance mode (-chaos-disk / -chaos-net): a hermetic run that
// injects seeded disk and network faults underneath the WebSocket
// transport and then proves the self-healing stack absorbed them:
//
//   - zero verdict loss: every session's plays are driven one round at a
//     time through self-healing clients, and each acknowledged result must
//     carry exactly the next round index — a round delivered twice or
//     skipped fails the run;
//   - convergence: after the run, every session's server-side round count
//     must equal the requested play budget exactly;
//   - determinism: every session's final state digest must be identical to
//     a fault-free twin session built from the same wire spec at the same
//     seed on a pristine authority;
//   - liveness of subscriptions: resumed event streams must stay
//     sequence-monotonic across reconnects.
//
// The same path runs at rate 0 so the fault-free row lands in the bench
// artifact next to the faulty ones.

// chaosRetryCap bounds consecutive no-progress retries of one command
// before the run is declared stuck (each retry sleeps chaosRetryPause, so
// the cap is also a per-round time budget that comfortably spans breaker
// cooldowns).
const (
	chaosRetryCap   = 2000
	chaosRetryPause = 5 * time.Millisecond
)

// chaosSub tracks one session's resumed event stream.
type chaosSub struct {
	events     atomic.Uint64
	lag        atomic.Uint64
	lastSeq    atomic.Uint64
	violations atomic.Uint64
}

func (s *chaosSub) handle(ev wire.Event, lag uint64) {
	if ev.Seq > 0 && ev.Seq <= s.lastSeq.Load() {
		s.violations.Add(1)
		return
	}
	s.lastSeq.Store(ev.Seq)
	s.events.Add(1)
	s.lag.Add(lag)
}

// chaosSlot is one session under chaos: its spec (shared with the twin),
// its self-healing client binding, and its verified progress.
type chaosSlot struct {
	scenario int
	id       string
	req      ga.CreateSessionRequest
	plays    int
	client   *hub.Client
	ref      uint64
	sub      *chaosSub
	deduped  uint64
	lat      []float64 // per-round acknowledge latency, ns
}

func runChaos(cfg config) error {
	if cfg.chaosDisk < 0 || cfg.chaosDisk > 1 || cfg.chaosNet < 0 || cfg.chaosNet > 1 {
		return fmt.Errorf("-chaos-disk %v / -chaos-net %v must be rates in [0,1]", cfg.chaosDisk, cfg.chaosNet)
	}
	if cfg.sessions < 1 || cfg.plays < 1 {
		return fmt.Errorf("-sessions and -plays must be positive")
	}
	if cfg.httpBase != "" {
		return fmt.Errorf("chaos mode is hermetic: it starts its own server and cannot ride -http")
	}
	if cfg.transport != "" && cfg.transport != "ws" {
		return fmt.Errorf("chaos mode drives the ws transport; -transport %q cannot apply", cfg.transport)
	}
	if cfg.crash > 0 || cfg.chaos || cfg.deviants > 0 {
		return fmt.Errorf("chaos mode does not compose with -crash/-chaos/-deviants")
	}
	if cfg.conns < 1 {
		return fmt.Errorf("-conns %d must be positive", cfg.conns)
	}
	if cfg.batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative", cfg.batch)
	}
	if cfg.batch > historyLimit {
		// A lost batch ack is healed by replaying the orphaned rounds from
		// the history ring; a batch larger than the ring could not be
		// deduplicated whole.
		return fmt.Errorf("-batch %d exceeds the chaos history ring (%d)", cfg.batch, historyLimit)
	}
	mix, err := applyMix(loadMix(), cfg.mix)
	if err != nil {
		return err
	}
	if cfg.sessions < len(mix) {
		return fmt.Errorf("-sessions %d is below the mix's %d scenarios; raise -sessions or narrow -mix",
			cfg.sessions, len(mix))
	}

	// The faulty server: a memory-backed durable authority whose store is
	// wrapped by a seeded disk plan, behind a loopback HTTP server whose
	// client connections are wrapped by a seeded network plan.
	diskPlan := ga.NewFaultPlan(ga.DiskFaultConfig(cfg.seed, cfg.chaosDisk))
	netPlan := ga.NewFaultPlan(ga.NetFaultConfig(cfg.seed, cfg.chaosNet))
	opts := []ga.AuthorityOption{ga.WithStore(ga.NewMemStore()), ga.WithFaultPlan(diskPlan)}
	if cfg.batch > 1 {
		// Batched chaos drives the real group-commit write path: a
		// file-backed WAL whose fsync epochs coalesce batch records while
		// the disk plan drops and tears them underneath.
		dir, err := os.MkdirTemp("", "loadgen-chaos-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := ga.NewFileStore(dir)
		if err != nil {
			return err
		}
		opts = []ga.AuthorityOption{ga.WithStore(st), ga.WithFaultPlan(diskPlan),
			ga.WithGroupCommit(groupCommitWindow, groupCommitMaxBatch)}
	}
	auth := ga.NewAuthority(opts...)
	srv := httptest.NewServer(ga.NewServer(auth))
	defer srv.Close()

	// The fault-free twin: same specs, same seeds, no store, no faults.
	twin := ga.NewAuthority()
	defer twin.Close()

	clients := make([]*hub.Client, cfg.conns)
	for i := range clients {
		c, err := chaosDial(srv.URL+"/ws", cfg.seed+uint64(i), netPlan)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Phase 1 — create every session concurrently with ack-loss recovery
	// (a create whose reply was cut may have landed: treat CodeExists as
	// success and re-attach by id).
	counts := sessionCounts(mix, cfg.sessions)
	slots := make([]*chaosSlot, 0, cfg.sessions)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			plays := cfg.plays
			if d := mix[i].playsDiv; d > 1 {
				if plays = cfg.plays / d; plays == 0 {
					plays = 1
				}
			}
			k := len(slots)
			id := fmt.Sprintf("lg-chaos-%s-%d", mix[i].name, k)
			req := mix[i].request(id, cfg.seed+uint64(k))
			req.HistoryLimit = historyLimit
			slots = append(slots, &chaosSlot{
				scenario: i,
				id:       id,
				req:      req,
				plays:    plays,
				client:   clients[k%len(clients)],
			})
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(slots))
	createStart := time.Now()
	for _, s := range slots {
		wg.Add(1)
		go func(s *chaosSlot) {
			defer wg.Done()
			if err := chaosCreate(s); err != nil {
				errCh <- fmt.Errorf("create %s: %w", s.id, err)
			}
		}(s)
	}
	wg.Wait()
	createDur := time.Since(createStart)
	if err := firstError(errCh); err != nil {
		return err
	}

	// A quarter of the sessions also stream events, proving subscriptions
	// survive reconnects with monotone sequence numbers.
	for k, s := range slots {
		if k%4 != 0 {
			continue
		}
		s.sub = &chaosSub{}
		if err := s.client.Subscribe(s.ref, s.sub.handle); err != nil {
			return fmt.Errorf("subscribe %s: %w", s.id, err)
		}
	}

	// Phase 2 — play one round at a time, asserting each acknowledged
	// result carries exactly the next round index.
	ctx := context.Background()
	playStart := time.Now()
	for _, s := range slots {
		wg.Add(1)
		go func(s *chaosSlot) {
			defer wg.Done()
			if err := chaosPlay(s, cfg.batch); err != nil {
				errCh <- fmt.Errorf("play %s: %w", s.id, err)
			}
		}(s)
	}
	wg.Wait()
	playDur := time.Since(playStart)
	if err := firstError(errCh); err != nil {
		return err
	}

	// Phase 3 — convergence and determinism audit against the twin.
	for _, s := range slots {
		wg.Add(1)
		go func(s *chaosSlot) {
			defer wg.Done()
			if err := chaosAudit(ctx, twin, s); err != nil {
				errCh <- err
			}
		}(s)
	}
	wg.Wait()
	if err := firstError(errCh); err != nil {
		return err
	}

	var events, lag, violations, deduped uint64
	for _, s := range slots {
		deduped += s.deduped
		if s.sub == nil {
			continue
		}
		events += s.sub.events.Load()
		lag += s.sub.lag.Load()
		violations += s.sub.violations.Load()
	}
	if violations > 0 {
		return fmt.Errorf("chaos: %d event-sequence regressions across resumed subscriptions", violations)
	}
	for _, s := range slots {
		if err := chaosRetry(func() error { return s.client.CloseSession(s.ref) }); err != nil {
			return fmt.Errorf("close %s: %w", s.id, err)
		}
	}

	var cc hub.ClientCounters
	for _, c := range clients {
		got := c.Counters()
		cc.Reconnects += got.Reconnects
		cc.ResumedSubscriptions += got.ResumedSubscriptions
		cc.DedupedRounds += got.DedupedRounds
	}
	faults := diskPlan.Injected() + netPlan.Injected()
	breakerOpens := scrapeCounter(srv.URL, "gameauthority_breaker_opens_total")

	var all []float64
	rounds := 0
	for _, s := range slots {
		all = append(all, s.lat...)
		rounds += s.plays
	}
	shape := ""
	if cfg.batch > 1 {
		shape = fmt.Sprintf(" (batch=%d, group commit)", cfg.batch)
	}
	fmt.Fprintf(cfg.info, "loadgen: chaos disk=%g net=%g%s, %d sessions over %d conns, %d rounds verified\n",
		cfg.chaosDisk, cfg.chaosNet, shape, len(slots), len(clients), rounds)
	fmt.Fprintf(cfg.info, "loadgen: created in %v, played in %v; %d faults injected, %d reconnects, %d resumed subscriptions, %d deduped rounds, %d breaker opens\n",
		createDur.Round(time.Millisecond), playDur.Round(time.Millisecond),
		faults, cc.Reconnects, cc.ResumedSubscriptions, deduped, breakerOpens)
	fmt.Fprintf(cfg.info, "loadgen: zero verdict loss; all %d digests match the fault-free twin; %d events streamed (%d lagged)\n",
		len(slots), events, lag)

	name := fmt.Sprintf("LoadgenChaos/disk=%g/net=%g", cfg.chaosDisk, cfg.chaosNet)
	if cfg.batch > 1 {
		name += fmt.Sprintf("/batch=%d", cfg.batch)
	}
	fmt.Fprintf(cfg.out, "goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
	writeBenchLine(cfg.out, name+"/total", all, len(slots), playDur)
	fmt.Fprintf(cfg.out, "Benchmark%s/heal-%d\t%d\t%.0f ns/op\t%d faults-injected\t%d reconnects\t%d resumed-subscriptions\t%d deduped-rounds\t%d breaker-opens\t%d verdict-loss\t%d digest-mismatches\n",
		name, runtime.GOMAXPROCS(0), rounds, float64(playDur.Nanoseconds())/float64(rounds),
		faults, cc.Reconnects, cc.ResumedSubscriptions, deduped, breakerOpens, 0, 0)
	return nil
}

// chaosDial dials one self-healing client, retrying the initial dial —
// the network plan wraps the raw connection, so even the opening
// handshake can be cut.
func chaosDial(url string, seed uint64, netPlan *ga.FaultPlan) (*hub.Client, error) {
	opts := hub.DialOptions{
		Reconnect:        true,
		ConnectTimeout:   5 * time.Second,
		HandshakeTimeout: 5 * time.Second,
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       250 * time.Millisecond,
		PingInterval:     time.Second,
		Seed:             seed,
		WrapConn:         netPlan.Conn,
	}
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var c *hub.Client
		if c, err = hub.DialWith(url, opts); err == nil {
			return c, nil
		}
		time.Sleep(chaosRetryPause)
	}
	return nil, fmt.Errorf("ws dial: %w", err)
}

// chaosTransient reports whether err is an expected, retryable chaos
// casualty: an injected durability failure, an open circuit breaker, or a
// connection that died before the reply.
func chaosTransient(err error) bool {
	if errors.Is(err, hub.ErrConnLost) {
		return true
	}
	var re *hub.RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeUnavailable || re.Code == wire.CodeBreakerOpen
	}
	return false
}

// chaosRetry runs op until it succeeds or exhausts the no-progress cap.
func chaosRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < chaosRetryCap; attempt++ {
		if err = op(); err == nil || !chaosTransient(err) {
			return err
		}
		time.Sleep(chaosRetryPause)
	}
	return fmt.Errorf("gave up after %d attempts: %w", chaosRetryCap, err)
}

// chaosCreate hosts the slot's session. Create is not idempotent: when a
// cut connection loses the ack, the session may have landed anyway, so a
// CodeExists on retry (or a lost-connection error) falls back to Attach.
func chaosCreate(s *chaosSlot) error {
	body, err := json.Marshal(s.req)
	if err != nil {
		return err
	}
	return chaosRetry(func() error {
		ref, _, err := s.client.Create(body)
		if err == nil {
			s.ref = ref
			return nil
		}
		var re *hub.RemoteError
		if errors.Is(err, hub.ErrConnLost) || (errors.As(err, &re) && re.Code == wire.CodeExists) {
			ref, aerr := s.client.Attach(s.id)
			if aerr == nil {
				s.ref = ref
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
}

// chaosPlay drives the slot one request at a time — single rounds by
// default, PlayN batches with -batch — and verifies every acknowledged
// result lands exactly on the next expected round index: a duplicate or a
// gap is verdict loss and fails the run. Injected failures retry; the
// session's watermark makes the retries idempotent, batched or not.
func chaosPlay(s *chaosSlot, batch int) error {
	s.lat = make([]float64, 0, s.plays)
	done := 0
	stuck := 0
	for done < s.plays {
		n := 1
		if batch > 1 {
			if n = batch; done+n > s.plays {
				n = s.plays - done
			}
		}
		t0 := time.Now()
		var out hub.PlayOutcome
		var err error
		if n == 1 {
			out, err = s.client.Play(s.ref, 1)
		} else {
			out, err = s.client.PlayBatch(s.ref, n)
		}
		if out.Completed > 0 {
			done += out.Completed
			s.deduped += uint64(out.Deduped)
			if out.Last.Round != done-1 {
				return fmt.Errorf("verdict loss: round %d acknowledged where %d was expected", out.Last.Round, done-1)
			}
			per := float64(time.Since(t0).Nanoseconds()) / float64(out.Completed)
			for i := 0; i < out.Completed; i++ {
				s.lat = append(s.lat, per)
			}
			stuck = 0
		}
		if err != nil {
			if !chaosTransient(err) {
				return err
			}
			if stuck++; stuck >= chaosRetryCap {
				return fmt.Errorf("no progress after %d attempts: %w", stuck, err)
			}
			time.Sleep(chaosRetryPause)
		} else if out.Completed == 0 {
			if stuck++; stuck >= chaosRetryCap {
				return fmt.Errorf("play made no progress after %d attempts", stuck)
			}
		}
	}
	return nil
}

// chaosAudit checks the slot converged exactly — the server-side round
// count equals the play budget and the state digest matches a fault-free
// twin session grown from the same spec.
func chaosAudit(ctx context.Context, twin *ga.Authority, s *chaosSlot) error {
	var st wire.Stats
	err := chaosRetry(func() error {
		var err error
		st, err = s.client.Stats(s.ref)
		return err
	})
	if err != nil {
		return fmt.Errorf("stats %s: %w", s.id, err)
	}
	if st.Rounds != s.plays {
		return fmt.Errorf("%s: server played %d rounds, want exactly %d", s.id, st.Rounds, s.plays)
	}
	var snap wire.SnapshotReply
	err = chaosRetry(func() error {
		var err error
		snap, err = s.client.Snapshot(s.ref)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", s.id, err)
	}
	th, err := twin.CreateFromSpec(s.req)
	if err != nil {
		return fmt.Errorf("twin create %s: %w", s.id, err)
	}
	defer twin.Remove(s.id)
	if _, err := th.Run(ctx, s.plays); err != nil {
		return fmt.Errorf("twin play %s: %w", s.id, err)
	}
	want := th.Snapshot()
	if snap.Rounds != uint64(want.Rounds) || snap.Digest != want.Digest {
		return fmt.Errorf("%s: chaos digest %s@%d diverges from fault-free twin %s@%d",
			s.id, snap.Digest, snap.Rounds, want.Digest, want.Rounds)
	}
	return nil
}

// scrapeCounter reads one counter from the server's Prometheus endpoint
// (0 when absent or unreachable — the bench row is best-effort here).
func scrapeCounter(base, name string) int64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
