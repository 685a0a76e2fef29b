// Command loadgen is the many-session load CLI: it hosts thousands of
// concurrent authority sessions across a weighted mix of scenario-catalog
// families and all four drivers (pure, mixed, RRA, distributed), plays
// every session concurrently, and says how fast it went — plays/s and
// per-play p50/p99, per scenario and in total.
//
// Three transports drive the same Authority host:
//
//   - inproc (default): sessions are created from their specs on an
//     in-process Authority and played directly — the sharded registry and
//     the play hot paths with no wire in between;
//   - http: -http http://host:port drives a running `gameauthd -serve`
//     over the JSON API, one POST per request;
//   - ws: the same server's /ws binary transport, every session
//     multiplexed over -conns connections.
//
// -selfserve starts a loopback server in-process, so both wire transports
// are measurable hermetically.
//
// The mix, the fleet and the players are internal/invariant's. What a run
// must get right is the acceptance table's to check (TestAcceptance), and
// the numbers that gate a change are the ledger's (bench/README.md); see
// DESIGN.md §7.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	ga "gameauthority"
	"gameauthority/internal/invariant"
	"gameauthority/internal/stats"
)

func main() {
	cfg := config{out: os.Stdout}
	flag.IntVar(&cfg.sessions, "sessions", 1000, "number of concurrent sessions to host")
	flag.IntVar(&cfg.plays, "plays", 20, "plays per session (heavy drivers play a documented fraction)")
	flag.IntVar(&cfg.batch, "batch", 0,
		"plays per batched request: >1 drives PlayN batches (one session lock, one wire round trip per batch)")
	flag.StringVar(&cfg.mix, "mix", "", "override scenario weights, e.g. congestion=4,rra=1 (default: built-in mix over every family)")
	flag.StringVar(&cfg.httpBase, "http", "", "drive a running gameauthd -serve at this base URL instead of in-process")
	flag.BoolVar(&cfg.selfserve, "selfserve", false, "start a loopback HTTP server in-process and drive it (hermetic wire mode)")
	flag.StringVar(&cfg.transport, "transport", "",
		"transport to drive: inproc, http, or ws (default: http when -http/-selfserve is set, else inproc)")
	flag.IntVar(&cfg.conns, "conns", 16, "ws transport: number of multiplexed WebSocket connections")
	flag.Uint64Var(&cfg.seed, "seed", 1, "root seed; session i uses seed+i")
	flag.Float64Var(&cfg.deviants, "deviants", 0,
		"fraction of sessions carrying one selfish deviant player (0..1); strategies rotate through the deviation catalog (load only: what a verdict must be is the acceptance table's to assert)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	sessions  int
	plays     int
	batch     int // >1: play in PlayN batches of this size
	mix       string
	httpBase  string
	selfserve bool
	transport string
	conns     int
	seed      uint64
	deviants  float64
	out       io.Writer // the summary (stdout in main)
}

// applyMix overrides scenario weights from a "name=weight,..." spec.
// Weight 0 drops a scenario from the mix.
func applyMix(mix []invariant.Scenario, spec string) ([]invariant.Scenario, error) {
	if spec == "" {
		return mix, nil
	}
	out := slices.Clone(mix)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q must be a non-negative integer", val)
		}
		i := slices.IndexFunc(out, func(sc invariant.Scenario) bool { return sc.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("mix names unknown scenario %q", name)
		}
		out[i].Weight = w
	}
	out = slices.DeleteFunc(out, func(sc invariant.Scenario) bool { return sc.Weight == 0 })
	if len(out) == 0 {
		return nil, fmt.Errorf("mix %q leaves no scenarios", spec)
	}
	return out, nil
}

func run(cfg config) error {
	if cfg.sessions < 1 || cfg.plays < 1 {
		return fmt.Errorf("-sessions and -plays must be positive")
	}
	if cfg.httpBase != "" && cfg.selfserve {
		return fmt.Errorf("-http and -selfserve are mutually exclusive")
	}
	tmode := cfg.transport
	if tmode == "" {
		if cfg.httpBase != "" || cfg.selfserve {
			tmode = "http"
		} else {
			tmode = "inproc"
		}
	}
	switch tmode {
	case "inproc", "http", "ws":
	default:
		return fmt.Errorf("-transport %q must be inproc, http, or ws", cfg.transport)
	}
	if tmode == "inproc" && (cfg.httpBase != "" || cfg.selfserve) {
		return fmt.Errorf("-transport inproc cannot combine with -http/-selfserve")
	}
	if tmode != "inproc" && cfg.httpBase == "" && !cfg.selfserve {
		return fmt.Errorf("-transport %s needs a server: set -http or -selfserve", tmode)
	}
	if tmode == "ws" && cfg.conns < 1 {
		return fmt.Errorf("-conns %d must be positive", cfg.conns)
	}
	if cfg.deviants < 0 || cfg.deviants > 1 {
		return fmt.Errorf("-deviants %v must be in [0,1]", cfg.deviants)
	}
	if cfg.batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative", cfg.batch)
	}
	mix, err := applyMix(invariant.Mix(), cfg.mix)
	if err != nil {
		return err
	}
	var strategies []string
	for _, d := range ga.DeviantStrategies() {
		strategies = append(strategies, d.Name())
	}
	slots, err := invariant.Fleet(mix, cfg.sessions, cfg.plays, cfg.seed, cfg.deviants, strategies)
	if err != nil {
		return fmt.Errorf("%w; raise -sessions or narrow -mix", err)
	}

	base := cfg.httpBase
	if cfg.selfserve {
		// One loopback server backs both wire transports, so WS-vs-HTTP
		// comparisons hit identical server code.
		srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
		defer srv.Close()
		base = srv.URL
	}
	var tr invariant.Transport
	switch tmode {
	case "ws":
		if tr, err = invariant.NewWS(base, cfg.conns); err != nil {
			return err
		}
	case "http":
		tr = invariant.NewHTTP(base)
	default:
		tr = invariant.NewInProc()
	}
	defer tr.Close()

	// Every session is created, and stays hosted and playable, together:
	// this is the "N concurrent sessions" claim.
	createStart := time.Now()
	if err := invariant.Create(slots, tr); err != nil {
		return err
	}
	createDur := time.Since(createStart)

	// One goroutine per session; a batched request books its amortized
	// per-round latency for each of its rounds, so the percentiles stay
	// comparable across batch sizes.
	lat := make([][]float64, len(slots))
	for k, s := range slots {
		lat[k] = make([]float64, 0, s.Plays)
	}
	playStart := time.Now()
	err = invariant.Play(context.Background(), slots, cfg.batch, 1, 1, func(k int, ack invariant.Ack, took time.Duration) {
		per := float64(took.Nanoseconds()) / float64(ack.Completed)
		for i := 0; i < ack.Completed; i++ {
			lat[k] = append(lat[k], per)
		}
	})
	if err != nil {
		return err
	}
	playDur := time.Since(playStart)

	for _, s := range slots {
		if err := s.Player.Close(); err != nil {
			return fmt.Errorf("close %s: %w", s.Spec.ID, err)
		}
	}

	perScenario := make([][]float64, len(mix))
	sessionsPer := make([]int, len(mix))
	var all []float64
	for k, s := range slots {
		perScenario[s.Scenario] = append(perScenario[s.Scenario], lat[k]...)
		sessionsPer[s.Scenario]++
		all = append(all, lat[k]...)
	}
	fmt.Fprintf(cfg.out, "loadgen: %s %s, %d concurrent sessions over %d scenarios, created in %v, %d plays in %v\n",
		tmode, base, len(slots), len(mix), createDur.Round(time.Millisecond), len(all), playDur.Round(time.Millisecond))
	fmt.Fprintf(cfg.out, "%-20s %-12s %8s %8s %12s %12s %12s\n", "scenario", "driver", "sessions", "plays", "plays/s", "p50", "p99")
	for i, sc := range mix {
		writeSummary(cfg.out, sc.Name, sc.Driver, perScenario[i], sessionsPer[i], playDur)
	}
	writeSummary(cfg.out, "total", "", all, len(slots), playDur)
	return nil
}

// writeSummary prints one row: the plays a scenario got through in the
// concurrent play window and the per-play latency percentiles.
func writeSummary(w io.Writer, name, driver string, lat []float64, sessions int, window time.Duration) {
	s := stats.Summarize(lat)
	fmt.Fprintf(w, "%-20s %-12s %8d %8d %12.0f %12v %12v\n", name, driver, sessions, s.N,
		float64(s.N)/window.Seconds(), time.Duration(s.P50).Round(10*time.Nanosecond), time.Duration(s.P99).Round(10*time.Nanosecond))
}
