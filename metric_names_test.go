package gameauthority_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/invariant"
)

// TestMetricNames enforces the metric naming conventions on a live
// server — durable, group-committed and sharded, so every package-level
// registration and every Authority/store/hub gauge is present in the
// scrape. For every family GET /metrics declares:
//
//   - the name starts with the gameauthority_ prefix;
//   - counters end in _total;
//   - histograms' base names end in _seconds (latencies are seconds);
//   - gauges do not end in _total (that suffix is reserved for
//     monotonic counters).
//
// A new metric with a nonconforming name fails here rather than shipping.
func TestMetricNames(t *testing.T) {
	srv := metricsServer(t)
	problems, types := lintMetricNames(string(durGet(t, srv.URL+"/metrics", http.StatusOK)))
	for _, p := range problems {
		t.Error(p)
	}
	if len(types) == 0 {
		t.Error("the scrape declared no metric family")
	}
}

// metricsServer is a durable, group-committed authority behind
// the full HTTP server with the debug routes on: every layer that
// registers a metric or emits a span is in the process.
func metricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(
		ga.WithStore(st),
		ga.WithGroupCommit(time.Millisecond, 64),
	)
	t.Cleanup(func() { a.Close() })
	srv := httptest.NewServer(ga.NewServer(a, ga.WithDebug(true)))
	t.Cleanup(srv.Close)
	return srv
}

// TestObservabilityUnderLoad drives plays on the pure and distributed
// drivers, single and batched, on the same kind of server and holds the
// observability plane (DESIGN.md §14) to what it promises an operator:
//
//   - GET /metrics is a parseable exposition carrying every histogram and
//     gauge family, each histogram's +Inf bucket equal to its _count, and
//     the series the load must have moved actually moved;
//   - GET /debug/trace captures a distributed play end to end as Chrome
//     trace_event JSON: the root play span, the per-pulse protocol spans
//     and the store's.
func TestObservabilityUnderLoad(t *testing.T) {
	srv := metricsServer(t)
	durPost(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "obs-pure", Game: "congestion"}, http.StatusCreated)
	durPost(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "obs-dist", Game: "publicgoods", Players: 4,
		Distributed: invariant.DistShape(4, 1)}, http.StatusCreated)
	// A batched request populates the PlayN histogram; the single plays
	// populate the per-driver latencies and the WAL and commit-epoch series.
	durPost(t, srv.URL+"/sessions/obs-pure/play?n=8", nil, http.StatusOK)
	durPost(t, srv.URL+"/sessions/obs-pure/play", map[string]int{"rounds": 4}, http.StatusOK)

	// The capture races the plays on purpose — that is how an operator
	// uses it: the request arms the tracer, the plays below feed it, and
	// the second traced play completes the response.
	type capture struct {
		body []byte
		err  error
	}
	captured := make(chan capture, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/debug/trace?plays=2&wait=30s")
		if err != nil {
			captured <- capture{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		captured <- capture{body, err}
	}()
	var trace capture
	for trace.body == nil {
		durPost(t, srv.URL+"/sessions/obs-dist/play", nil, http.StatusOK)
		select {
		case trace = <-captured:
			if trace.err != nil {
				t.Fatalf("trace capture: %v", trace.err)
			}
		default:
		}
	}

	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.body, &tf); err != nil {
		t.Fatalf("trace is not trace_event JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("span %q: phase %q, want the complete-event phase X", ev.Name, ev.Ph)
		}
		spans[ev.Name] = true
	}
	for _, name := range []string{"play", "pulse.clock-sync", "pulse.dolev-strong", "pulse.eig-resolve", "wal.append"} {
		if !spans[name] {
			t.Errorf("the trace of a distributed play lacks the %q span", name)
		}
	}

	body := string(durGet(t, srv.URL+"/metrics", http.StatusOK))
	problems, types := lintMetricNames(body)
	for _, p := range append(problems, lintScrape(body, types)...) {
		t.Error(p)
	}
}

// lintScrape holds an exposition taken after TestObservabilityUnderLoad's
// load, and the family types lintMetricNames read from it, to its
// content: every sample parses, every expected family is declared with
// its type and renders a series, every histogram is internally
// consistent, and the load landed where it should.
func lintScrape(body string, types map[string]string) (problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	samples, unparsed := parseSamples(body)
	for _, line := range unparsed {
		bad("unparseable sample line %q", line)
	}
	families := map[string]bool{}
	for series := range samples {
		name, _, _ := strings.Cut(series, "{")
		families[name] = true
	}
	// All of these register at package init or when the server is built,
	// whatever the workload.
	for _, name := range []string{
		"gameauthority_play_latency_seconds",
		"gameauthority_playn_batch_seconds",
		"gameauthority_restore_seconds",
		"gameauthority_wal_append_seconds",
		"gameauthority_fsync_seconds",
		"gameauthority_commit_epoch_seconds",
		"gameauthority_http_request_seconds",
		"gameauthority_ws_roundtrip_seconds",
	} {
		if types[name] != "histogram" || !families[name+"_count"] {
			bad("histogram family %s: TYPE %q, renders a _count: %v", name, types[name], families[name+"_count"])
		}
	}
	for _, name := range []string{
		"gameauthority_group_commit_queue_depth",
		"gameauthority_shard_sessions",
		"gameauthority_shard_loop_queue_depth",
		"gameauthority_breaker_open_sessions",
		"gameauthority_hub_outbox_depth",
		"gameauthority_goroutines",
		"gameauthority_heap_alloc_bytes",
		"gameauthority_heap_objects",
		"gameauthority_gc_cycles",
		"gameauthority_gc_pause_total_seconds",
	} {
		if types[name] != "gauge" || !families[name] {
			bad("gauge family %s: TYPE %q, renders a series: %v", name, types[name], families[name])
		}
	}
	// Every histogram series' +Inf bucket holds exactly its _count.
	for series, count := range samples {
		name, labels, labelled := strings.Cut(series, "{")
		base, ok := strings.CutSuffix(name, "_count")
		if !ok || types[base] != "histogram" {
			continue
		}
		inf := base + `_bucket{le="+Inf"}`
		if labelled {
			inf = base + "_bucket{" + strings.TrimSuffix(labels, "}") + `,le="+Inf"}`
		}
		if got, ok := samples[inf]; !ok || got != count {
			bad("histogram series %s: +Inf bucket %v (present: %v), _count %v", series, got, ok, count)
		}
	}
	for _, moved := range []string{
		`gameauthority_play_latency_seconds_count{driver="pure"}`,
		`gameauthority_play_latency_seconds_count{driver="distributed"}`,
		`gameauthority_playn_batch_seconds_count`,
		`gameauthority_wal_append_seconds_count`,
		`gameauthority_commit_epoch_seconds_count`,
		`gameauthority_http_request_seconds_count{route="POST /sessions/{id}/play"}`,
	} {
		if samples[moved] == 0 {
			bad("series %s recorded nothing under load", moved)
		}
	}
	return problems
}

// parseSamples reads an exposition's sample lines into series (name plus
// labels) → value and returns the lines that do not parse.
func parseSamples(body string) (samples map[string]float64, unparsed []string) {
	samples = map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if idx < 0 || err != nil {
			unparsed = append(unparsed, line)
			continue
		}
		samples[line[:idx]] = v
	}
	return samples, unparsed
}

// scrapeSamples parses the process's metrics, the body GET /metrics
// serves. Counters are process-wide, so a test reads the delta between
// two scrapes.
func scrapeSamples(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := ga.WriteObsMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples, unparsed := parseSamples(buf.String())
	if len(unparsed) > 0 {
		t.Fatalf("unparseable sample lines %q", unparsed)
	}
	return samples
}

// lintMetricNames applies the naming rules to every `# TYPE name type`
// declaration and checks each sample line belongs to a declared family;
// it returns the declared types by family name.
func lintMetricNames(body string) (problems []string, types map[string]string) {
	types = map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("malformed TYPE line %q", line))
				continue
			}
			name, typ := fields[2], fields[3]
			if prev, ok := types[name]; ok && prev != typ {
				problems = append(problems, fmt.Sprintf("%s declared as both %s and %s", name, prev, typ))
			}
			types[name] = typ
		case strings.HasPrefix(line, "#"):
			problems = append(problems, fmt.Sprintf("unrecognized comment line %q", line))
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if t, ok := strings.CutSuffix(name, suffix); ok && types[t] == "histogram" {
					base = t
					break
				}
			}
			if _, ok := types[base]; !ok {
				problems = append(problems, fmt.Sprintf("series %s has no TYPE declaration", name))
			}
		}
	}
	for name, typ := range types {
		if !strings.HasPrefix(name, "gameauthority_") {
			problems = append(problems, fmt.Sprintf("%s lacks the gameauthority_ prefix", name))
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("counter %s must end in _total", name))
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") {
				problems = append(problems, fmt.Sprintf("histogram %s must end in _seconds", name))
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("gauge %s must not end in _total (reserved for counters)", name))
			}
		default:
			problems = append(problems, fmt.Sprintf("%s has unsupported type %s", name, typ))
		}
	}
	return problems, types
}

// TestFoulsTotalMatchesStats holds gameauthority_fouls_total to the
// sessions' own tally on every driver: a visible deviant's fouls move the
// counter by exactly Stats().Fouls, whether the driver reports them as a
// verdict (pure, mixed, RRA) or as guilty processors (distributed), and
// whether they land on a play or on Close (a batched-audit mixed session
// audits its trailing epoch there). gameauthority_convictions_total moves
// by the convicted agents the session's results list, Close's included.
func TestFoulsTotalMatchesStats(t *testing.T) {
	cheat := &ga.DeviantSpec{Player: 0, Strategy: "commitment-cheat"}
	for _, tc := range []struct {
		name  string
		spec  ga.CreateSessionRequest
		close bool
	}{
		{"pure", ga.CreateSessionRequest{Game: "publicgoods", Players: 4}, false},
		{"mixed", ga.CreateSessionRequest{Game: "matchingpennies", Kind: "mixed", Audit: "per-round"}, false},
		{"mixed-batched", ga.CreateSessionRequest{Game: "matchingpennies", Kind: "mixed", Audit: "batched", EpochLen: 16}, true},
		{"rra", ga.CreateSessionRequest{RRA: invariant.RRAShape(8, 4), Punishment: &ga.PunishmentSpec{Scheme: "disconnect"}}, false},
		{"distributed", ga.CreateSessionRequest{Game: "publicgoods", Players: 4, Distributed: invariant.DistShape(4, 1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := ga.NewAuthority()
			t.Cleanup(func() { a.Close() })
			srv := httptest.NewServer(ga.NewServer(a))
			t.Cleanup(srv.Close)
			counters := func() (fouls, convictions float64) {
				samples, _ := parseSamples(string(durGet(t, srv.URL+"/metrics", http.StatusOK)))
				return samples["gameauthority_fouls_total"], samples["gameauthority_convictions_total"]
			}
			foulsBefore, convictionsBefore := counters()
			spec := tc.spec
			spec.ID, spec.Seed, spec.Deviant = "fouls-"+tc.name, 2, cheat
			h, err := a.CreateFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := h.Play(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if tc.close {
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}
			want := h.Stats().Fouls
			if want == 0 {
				t.Fatal("the deviant committed no foul; the row proves nothing")
			}
			convicted := 0
			for _, res := range h.Results() {
				convicted += len(res.Convicted)
			}
			fouls, convictions := counters()
			if got := fouls - foulsBefore; got != float64(want) {
				t.Errorf("gameauthority_fouls_total moved by %v, Stats().Fouls = %d", got, want)
			}
			if got := convictions - convictionsBefore; got != float64(convicted) {
				t.Errorf("gameauthority_convictions_total moved by %v, the results convict %d", got, convicted)
			}
		})
	}
}

// TestPlaysTotalCountsHostedPlays pins how far gameauthority_plays_total
// moves: by the plays a hosted PlayN completed — j when its sink fails
// after j of k rounds, k on a durable session — and not at all for the
// plays of a session that was never hosted.
func TestPlaysTotalCountsHostedPlays(t *testing.T) {
	const k, j = 5, 2
	ctx := context.Background()
	plays := func(play func()) float64 {
		before := scrapeSamples(t)["gameauthority_plays_total"]
		play()
		return scrapeSamples(t)["gameauthority_plays_total"] - before
	}
	spec := ga.CreateSessionRequest{Game: "pd", Seed: 1}

	host := ga.NewAuthority()
	t.Cleanup(func() { host.Close() })
	volatile, err := host.CreateFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	errSink := errors.New("sink failed")
	if got := plays(func() {
		seen := 0
		_, err := volatile.PlayN(ctx, k, func(ga.RoundResult) error {
			if seen++; seen == j {
				return errSink
			}
			return nil
		})
		if !errors.Is(err, errSink) {
			t.Fatalf("PlayN(%d) with a failing sink: %v", k, err)
		}
	}); got != j {
		t.Errorf("a PlayN(%d) whose sink failed after %d rounds moved plays_total by %v", k, j, got)
	}

	durableHost := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	t.Cleanup(func() { durableHost.Close() })
	durable, err := durableHost.CreateFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := plays(func() {
		if _, err := durable.PlayN(ctx, k, nil); err != nil {
			t.Fatal(err)
		}
	}); got != k {
		t.Errorf("a durable PlayN(%d) moved plays_total by %v", k, got)
	}

	unhosted, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := plays(func() {
		if _, err := unhosted.Run(ctx, k); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("%d plays of a session never hosted moved plays_total by %v", k, got)
	}
}

// TestFoulsTotalAfterRecover is TestFoulsTotalMatchesStats's row for a
// recovered session: Recover replays a batched-audit mixed session's
// plays without counting them as plays or fouls (they are replayed
// rounds), and Close, auditing the trailing epoch on the restored
// session, moves gameauthority_fouls_total by exactly what it adds to
// Stats().Fouls.
func TestFoulsTotalAfterRecover(t *testing.T) {
	ctx := context.Background()
	first := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	h, err := first.CreateFromSpec(ga.CreateSessionRequest{
		ID: "recovered", Game: "matchingpennies", Kind: "mixed", Audit: "batched", EpochLen: 16, Seed: 2,
		Deviant: &ga.DeviantSpec{Player: 0, Strategy: "commitment-cheat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(ctx, 5); err != nil {
		t.Fatal(err)
	}
	st := first.DetachStore()
	// The abandoned host closes last: its own Close audits the same
	// trailing epoch and would move the counters this test reads.
	t.Cleanup(func() { first.Close() })

	before := scrapeSamples(t)
	second := ga.NewAuthority(ga.WithStore(st))
	t.Cleanup(func() { second.Close() })
	if rep, err := second.Recover(ctx); err != nil || rep.Sessions != 1 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	recovered := scrapeSamples(t)
	for name, want := range map[string]float64{
		"gameauthority_replayed_rounds_total": 5,
		"gameauthority_plays_total":           0,
		"gameauthority_fouls_total":           0,
	} {
		if got := recovered[name] - before[name]; got != want {
			t.Errorf("Recover moved %s by %v, want %v", name, got, want)
		}
	}

	r, err := second.Get("recovered")
	if err != nil {
		t.Fatal(err)
	}
	foulsBefore := r.Stats().Fouls
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	added := r.Stats().Fouls - foulsBefore
	if added == 0 {
		t.Fatal("Close audited no foul; the row proves nothing")
	}
	closed := scrapeSamples(t)
	if got := closed["gameauthority_fouls_total"] - recovered["gameauthority_fouls_total"]; got != float64(added) {
		t.Errorf("close added %d fouls to Stats; fouls_total moved by %v", added, got)
	}
}
