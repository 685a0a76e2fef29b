// Command gameauthd runs the game-authority middleware in one of two modes.
//
// Trace mode (default) simulates one distributed cluster and prints a
// play-by-play trace: n processors, a self-stabilizing Byzantine clock
// scheduling the §3.3 protocol phases, interactive consistency for every
// agreement, judicial audits, and executive punishments.
//
// Serve mode (-serve) hosts many independent authority sessions behind the
// HTTP/JSON API (POST /sessions, POST /sessions/{id}/play,
// GET /sessions/{id}/events, ...). With -data-dir the host is durable:
// sessions journal every play to a per-session write-ahead log under the
// directory, startup recovers whatever a previous (even killed) instance
// hosted, and SIGINT/SIGTERM snapshot every session and sync the store
// before exiting.
//
// Usage examples:
//
//	go run ./cmd/gameauthd                          # 4 honest processors
//	go run ./cmd/gameauthd -n 4 -f 1 -cheat 2       # processor 2 plays outside Π
//	go run ./cmd/gameauthd -corrupt 3 -plays 12     # transient fault after play 3
//	go run ./cmd/gameauthd -serve :8080             # multi-session HTTP host
//	go run ./cmd/gameauthd -serve :8080 -data-dir /var/lib/gameauthd  # durable host
//	go run ./cmd/gameauthd -serve :8080 -pprof      # live profiling at /debug/pprof/
//	go run ./cmd/gameauthd -trace-out trace.json    # Chrome trace of the run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	ga "gameauthority"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

func main() {
	var (
		n         = flag.Int("n", 4, "number of processors (= players)")
		f         = flag.Int("f", 1, "Byzantine fault bound (n > 3f)")
		plays     = flag.Int("plays", 8, "number of plays to run")
		cheat     = flag.Int("cheat", -1, "processor id that plays an illegitimate action (-1: none)")
		corrupt   = flag.Int("corrupt", -1, "inject a transient fault after this play (-1: never)")
		seed      = flag.Uint64("seed", 7, "root seed")
		serve     = flag.String("serve", "", "host the multi-session HTTP API on this address instead of tracing")
		dataDir   = flag.String("data-dir", "", "durable store directory (serve mode): journal sessions, recover on startup, snapshot on shutdown")
		ws        = flag.Bool("ws", true, "serve mode: mount the /ws binary streaming transport")
		chaosDisk = flag.Float64("chaos-disk", 0, "serve mode: inject seeded disk faults into the durable store at this base rate [0,1]")
		chaosNet  = flag.Float64("chaos-net", 0, "serve mode: inject seeded network faults into accepted connections at this base rate [0,1]")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (serve mode: boot to shutdown)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file after the run (serve mode: at drain shutdown)")
		pprofOn   = flag.Bool("pprof", false, "serve mode: mount live profiling and trace capture under /debug/")
		traceOut  = flag.String("trace-out", "", "record play spans and write a Chrome trace_event JSON file at exit")
	)
	flag.Parse()

	if *serve != "" {
		// Trace flags do not configure served sessions (those come from
		// POST /sessions bodies) — reject them loudly instead of silently
		// ignoring them.
		var stray []string
		flag.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "serve", "data-dir", "ws", "chaos-disk", "chaos-net", "seed",
				"pprof", "trace-out", "cpuprofile", "memprofile":
			default:
				stray = append(stray, "-"+fl.Name)
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "gameauthd: %v only apply to trace mode; sessions are configured via POST /sessions\n", stray)
			os.Exit(2)
		}
		err := serveAPI(*serve, serveOptions{
			dataDir:   *dataDir,
			ws:        *ws,
			seed:      *seed,
			chaosDisk: *chaosDisk,
			chaosNet:  *chaosNet,
			pprof:     *pprofOn,
			traceOut:  *traceOut,
			cpuProf:   *cpuProf,
			memProf:   *memProf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *dataDir != "" {
		fmt.Fprintln(os.Stderr, "gameauthd: -data-dir only applies to serve mode (-serve)")
		os.Exit(2)
	}
	strayServe := false
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "ws", "chaos-disk", "chaos-net", "pprof":
			strayServe = true
		}
	})
	if strayServe {
		fmt.Fprintln(os.Stderr, "gameauthd: -ws, -chaos-disk, -chaos-net and -pprof only apply to serve mode (-serve)")
		os.Exit(2)
	}
	if err := validateFlags(*n, *f, *plays, *cheat); err != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
		os.Exit(2)
	}
	stopCPU, err := startCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
		os.Exit(2)
	}
	if *traceOut != "" {
		// Trace every play of the run: the trace-mode workload is small and
		// deterministic, so no sampling is wanted.
		ga.EnableTracing(0, 1)
	}
	traceErr := trace(*n, *f, *plays, *cheat, *corrupt, *seed)
	stopCPU()
	if *cpuProf != "" {
		fmt.Printf("gameauthd: CPU profile written to %s\n", *cpuProf)
	}
	if *traceOut != "" {
		ga.DisableTracing()
		if err := writeTraceFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
		} else {
			// The trace CLI drives the pulse protocol below the Session
			// layer, so the ring holds pulse/phase spans, not play roots.
			fmt.Printf("gameauthd: trace (%d spans) written to %s\n", ga.TracedSpans(), *traceOut)
		}
	}
	memErr := writeMemProfile(*memProf)
	// Report both failures; the trace failure decides the exit code (the
	// documented non-zero pulse-budget contract) ahead of the profile one.
	if memErr != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: %v\n", memErr)
	} else if *memProf != "" {
		fmt.Printf("gameauthd: heap profile written to %s\n", *memProf)
	}
	if traceErr != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: %v\n", traceErr)
		os.Exit(1)
	}
	if memErr != nil {
		os.Exit(2)
	}
}

// serveOptions collects the serve-mode configuration.
type serveOptions struct {
	dataDir   string
	ws        bool
	seed      uint64
	chaosDisk float64
	chaosNet  float64
	pprof     bool
	traceOut  string
	cpuProf   string
	memProf   string
}

// serveAPI hosts the multi-session HTTP API, optionally durable. With a
// data directory the startup sequence is recover-then-listen (journaled
// sessions answer requests from the first accepted connection), and the
// shutdown sequence is drain → snapshot-all → fsync-and-close: everything
// journaled is compacted and on disk before the process exits. A kill
// that skips shutdown loses nothing either — that is what the
// write-ahead log is for.
func serveAPI(addr string, o serveOptions) error {
	var opts []ga.AuthorityOption
	if o.dataDir != "" {
		st, err := ga.NewFileStore(o.dataDir)
		if err != nil {
			return err
		}
		opts = append(opts, ga.WithStore(st))
	}
	if o.chaosDisk > 0 {
		opts = append(opts, ga.WithFaultPlan(ga.NewFaultPlan(ga.DiskFaultConfig(o.seed, o.chaosDisk))))
		fmt.Printf("gameauthd: CHAOS disk faults armed at rate %g (seed %d)\n", o.chaosDisk, o.seed)
	}
	var netPlan *ga.FaultPlan
	if o.chaosNet > 0 {
		netPlan = ga.NewFaultPlan(ga.NetFaultConfig(o.seed, o.chaosNet))
		fmt.Printf("gameauthd: CHAOS network faults armed at rate %g (seed %d)\n", o.chaosNet, o.seed)
	}
	stopCPU, err := startCPUProfile(o.cpuProf)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		// Record every play until shutdown; the ring keeps the most recent
		// window, so the dump shows the tail of the serve run.
		ga.EnableTracing(0, 1)
		fmt.Printf("gameauthd: tracing plays; trace will be written to %s on shutdown\n", o.traceOut)
	}
	authority := ga.NewAuthority(opts...)
	if o.dataDir != "" {
		report, err := authority.Recover(context.Background())
		if err != nil {
			return fmt.Errorf("recover %s: %w", o.dataDir, err)
		}
		fmt.Printf("gameauthd: recovered %d sessions (%d plays replayed in %v) from %s\n",
			report.Sessions, report.Rounds, report.Elapsed.Round(time.Millisecond), o.dataDir)
		for _, failure := range report.Failed {
			fmt.Fprintf(os.Stderr, "gameauthd: recovery skipped %s\n", failure)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:    addr,
		Handler: ga.NewServer(authority, ga.WithWebSocket(o.ws), ga.WithDebug(o.pprof)),
	}
	errCh := make(chan error, 1)
	go func() {
		if netPlan == nil {
			errCh <- srv.ListenAndServe()
			return
		}
		// Network chaos wraps the listener so every accepted connection
		// sees the plan's latency, drops, and mid-frame cuts.
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			errCh <- err
			return
		}
		errCh <- srv.Serve(netPlan.Listener(ln))
	}()
	if o.ws {
		fmt.Printf("gameauthd: serving the authority API on %s (streaming transport at /ws)\n", addr)
	} else {
		fmt.Printf("gameauthd: serving the authority API on %s\n", addr)
	}
	if o.pprof {
		fmt.Printf("gameauthd: live profiling at http://%s/debug/pprof/ (trace capture at /debug/trace)\n", addr)
	}

	select {
	case err := <-errCh:
		stopCPU()
		return err
	case <-ctx.Done():
	}
	fmt.Println("gameauthd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: drain: %v\n", err)
	}
	if o.dataDir != "" {
		if n, err := authority.SnapshotAll(); err != nil {
			fmt.Fprintf(os.Stderr, "gameauthd: snapshot: %v\n", err)
		} else {
			fmt.Printf("gameauthd: %d snapshots persisted\n", n)
		}
	}
	// Drain-shutdown observability hooks: the drained-but-live process is
	// the honest heap/trace to capture, so dump before Close tears the
	// authority down. Profile failures are reported, never fatal — the
	// snapshot-and-close contract above matters more.
	if o.traceOut != "" {
		ga.DisableTracing()
		if err := writeTraceFile(o.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
		} else {
			fmt.Printf("gameauthd: trace (%d plays) written to %s\n", ga.TracedPlays(), o.traceOut)
		}
	}
	stopCPU()
	if o.cpuProf != "" {
		fmt.Printf("gameauthd: CPU profile written to %s\n", o.cpuProf)
	}
	if err := writeMemProfile(o.memProf); err != nil {
		fmt.Fprintf(os.Stderr, "gameauthd: %v\n", err)
	} else if o.memProf != "" {
		fmt.Printf("gameauthd: heap profile written to %s\n", o.memProf)
	}
	return authority.Close()
}

// writeTraceFile dumps the captured span ring as Chrome trace_event JSON.
func writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := ga.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// startCPUProfile begins CPU profiling into path ("" = disabled) and
// returns the stop function.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile dumps the post-run heap profile to path ("" = disabled).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// validateFlags rejects invalid trace-mode configurations loudly instead
// of silently ignoring them.
func validateFlags(n, f, plays, cheat int) error {
	if n <= 3*f {
		return fmt.Errorf("need n > 3f (got n=%d f=%d)", n, f)
	}
	if plays <= 0 {
		return fmt.Errorf("-plays must be positive (got %d)", plays)
	}
	if cheat != -1 && (cheat < 0 || cheat >= n) {
		return fmt.Errorf("-cheat must be a processor id in [0,%d) or -1 (got %d)", n, cheat)
	}
	return nil
}

// trace runs one distributed cluster and prints every play. It fails when
// the pulse budget is exhausted before the requested plays complete.
func trace(n, f, plays, cheat, corrupt int, seed uint64) error {
	// The elected game: an n-player public-goods game (defection dominates,
	// cooperation is socially optimal) — a natural "society" workload.
	g, err := ga.PublicGoods(n, 2)
	if err != nil {
		return err
	}
	fmt.Printf("gameauthd: n=%d f=%d game=%s plays=%d (pulses/play=%d)\n",
		n, f, g.Name(), plays, ga.PulsesPerPlay(f))

	var byz map[int]ga.Adversary
	opts := []ga.Option{
		ga.WithSeed(seed),
		// Each play gets a budget with recovery slack; a play exceeding it
		// (a wedged cluster) is a hard failure below.
		ga.WithPulseBudget((plays + 40) * ga.PulsesPerPlay(f)),
	}
	if cheat >= 0 {
		behaviors := make([]*ga.Agent, n)
		behaviors[cheat] = &ga.Agent{Choose: func(int, ga.Profile) int { return 99 }}
		byz = map[int]ga.Adversary{cheat: sim.PassthroughAdversary()}
		opts = append(opts, ga.WithAgents(behaviors...))
		fmt.Printf("gameauthd: processor %d will play outside its action set\n", cheat)
	}
	opts = append(opts, ga.WithDistributed(n, f, byz))

	s, err := ga.New(g, opts...)
	if err != nil {
		return err
	}
	unsubscribe := s.Subscribe(ga.ObserverFunc(func(e ga.Event) {
		switch e.Kind {
		case ga.EventPlay:
			fmt.Printf("play %2d @pulse %4d  outcome=%v\n", e.Round, e.Pulse, e.Outcome)
		case ga.EventConviction:
			fmt.Printf("          CONVICTED agent %d (disconnected by the executive)\n", e.Agent)
		case ga.EventClockRecovery:
			fmt.Printf("          clock recovered: %s\n", e.Detail)
		}
	}))
	defer unsubscribe()

	dist := ga.AsDistributed(s)
	ctx := context.Background()
	for seen := 0; seen < plays; seen++ {
		if _, err := s.Play(ctx); err != nil {
			if errors.Is(err, ga.ErrPulseBudget) {
				return fmt.Errorf("pulse budget exhausted after %d of %d plays: %w", seen, plays, err)
			}
			return err
		}
		if corrupt >= 0 && seen+1 == corrupt {
			fmt.Println("--- transient fault: corrupting every processor's state ---")
			ent := prng.New(seed ^ 0xFA11)
			dist.Net.Corrupt(ent.Uint64)
		}
	}

	// A processor keeps a fixed ring of its latest plays, and a transient
	// fault empties it: check every play the replicas still retain.
	done := s.Stats().Rounds
	checked := min(done, len(dist.Procs[dist.Honest[0]].Results()))
	if err := dist.ConsistentResults(checked); err != nil {
		return fmt.Errorf("HONEST REPLICA DIVERGENCE: %w", err)
	}
	fmt.Printf("gameauthd: %d plays, the last %d consistent at every honest replica; %d messages exchanged\n",
		done, checked, dist.Net.Stats.MessagesSent)
	return nil
}
