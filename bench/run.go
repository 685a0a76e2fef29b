package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The seven end-to-end metric names, fixed for every workload.
const (
	mPlaysPerS    = "plays_per_s"
	mReqP50       = "req_p50_us"
	mReqP90       = "req_p90_us"
	mCPUPerPlay   = "cpu_us_per_play"
	mAllocsPerPly = "allocs_per_play"
	mLiveHeapMB   = "live_heap_mb"
	mSetupS       = "setup_s"
)

// fixture is one workload's live system under test. build is everything
// before the first timed request and is what setup_s times.
type fixture interface {
	build() error
	// beginWindow runs untimed before every window.
	beginWindow() error
	// request issues client c's i-th timed request of the current window.
	request(c, i int) error
	// endWindow runs untimed after every window and returns the sessions
	// that failed an output check in it.
	endWindow() []string
	// check runs the end-of-run output checks: it returns how many
	// sessions it examined and one line per session that failed.
	check() (examined int, problems []string)
	// metrics serves the authority's GET /metrics.
	metrics() http.Handler
	// netStats sums SessionStats.Pulses and .Messages over the sessions.
	netStats() (pulses, messages int64)
	// walFootprint reports the bytes and plays currently in WAL tails.
	walFootprint() (bytes, plays int64)
	close()
}

// windowStat is what one window measured.
type windowStat struct {
	Traced       bool    `json:"traced,omitempty"`
	Requests     int     `json:"requests"`
	Plays        int     `json:"plays"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	PlaysPerS    float64 `json:"plays_per_s"`
	P50us        float64 `json:"req_p50_us"`
	P90us        float64 `json:"req_p90_us"`
	P99us        float64 `json:"req_p99_us"`
	PMaxus       float64 `json:"req_pmax_us"`
	PMaxPct      float64 `json:"req_pmax_pct"`
	CPUusPerPlay float64 `json:"cpu_us_per_play"`
}

// clientSpan is one request as the traced run's client saw it; the spans
// are the benchmark's own contribution to the trace file.
type clientSpan struct {
	start time.Time
	dur   time.Duration
}

// clientSpanRing bounds how many of its latest requests each client keeps
// for the trace file.
const clientSpanRing = 8192

// windowRunner drives the closed-loop clients through one window at a
// time. Everything it records into is allocated by newWindowRunner, before
// the measured phase starts.
type windowRunner struct {
	fx     fixture
	sh     shape
	hists  [][clients]*hist // one per window per client
	merged *hist
	failed int
	errs   []string
	// spans, when non-nil, receives each client's latest requests.
	spans [clients][]clientSpan
	spanN [clients]int
	// scraped, when non-nil, accumulates how far each /metrics series
	// moved during the windows. It is taken window by window because
	// recover_replay's authority — and with it the counters — is a new
	// one in every window.
	scraped map[string]float64
}

// newWindowRunner prepares nWindows windows; traced also prepares the
// traced run's extras, the client spans and the /metrics deltas.
func newWindowRunner(fx fixture, sh shape, nWindows int, traced bool) *windowRunner {
	r := &windowRunner{fx: fx, sh: sh, merged: newHist(), hists: make([][clients]*hist, nWindows)}
	for w := range r.hists {
		for c := range r.hists[w] {
			r.hists[w][c] = newHist()
		}
	}
	if traced {
		for c := range r.spans {
			r.spans[c] = make([]clientSpan, clientSpanRing)
		}
		r.scraped = map[string]float64{}
	}
	return r
}

// finish runs the end-of-run output checks and settles the phase's
// operation counts: every timed request and every examined session was
// attempted; a request that erred or a session that failed a check failed.
func (r *windowRunner) finish(res *phaseResult) (plays int) {
	for _, w := range res.Windows {
		plays += w.Plays
		res.Attempted += w.Requests
	}
	examined, problems := r.fx.check()
	res.Attempted += examined
	for _, p := range problems {
		r.noteFailure(1, p)
	}
	res.Failed, res.Problems = r.failed, r.errs
	return plays
}

// noteFailure counts failed operations and keeps the first few messages.
func (r *windowRunner) noteFailure(n int, msg string) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// run executes window w: the untimed prologue, then both clients issuing
// their fixed request count back to back, then the untimed epilogue.
func (r *windowRunner) run(w int, traced bool) (windowStat, error) {
	if err := r.fx.beginWindow(); err != nil {
		return windowStat{}, fmt.Errorf("window %d: %w", w, err)
	}
	var before map[string]float64
	if r.scraped != nil {
		before = scrape(r.fx.metrics())
	}
	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		failures [clients]int
		firstErr [clients]error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := r.hists[w][c]
			spans := r.spans[c]
			<-start
			prev := time.Now()
			for i := 0; i < r.sh.requests; i++ {
				err := r.fx.request(c, i)
				now := time.Now()
				h.record(int64(now.Sub(prev)))
				if spans != nil && traced {
					spans[r.spanN[c]%len(spans)] = clientSpan{start: prev, dur: now.Sub(prev)}
					r.spanN[c]++
				}
				prev = now
				if err != nil {
					failures[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				}
			}
		}(c)
	}
	cpu0 := processCPU()
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	if r.scraped != nil {
		for series, v := range scrape(r.fx.metrics()) {
			r.scraped[series] += v - before[series]
		}
	}

	for c := range failures {
		if failures[c] > 0 {
			r.noteFailure(failures[c], fmt.Sprintf("window %d client %d: %d requests failed, first: %v", w, c, failures[c], firstErr[c]))
		}
	}
	for _, p := range r.fx.endWindow() {
		r.noteFailure(1, fmt.Sprintf("window %d: %s", w, p))
	}

	m := r.merged
	clear(m.counts)
	m.n = 0
	for c := range r.hists[w] {
		m.merge(r.hists[w][c])
	}
	st := windowStat{
		Traced:   traced,
		Requests: clients * r.sh.requests,
		Plays:    clients * r.sh.requests * r.sh.roundsPerRequest,
		WallS:    wall.Seconds(),
		CPUS:     cpu.Seconds(),
		P50us:    m.quantile(0.50) / 1e3,
		P90us:    m.quantile(0.90) / 1e3,
		P99us:    m.quantile(0.99) / 1e3,
	}
	tail, pct := m.tail()
	st.PMaxus, st.PMaxPct = tail/1e3, pct
	st.PlaysPerS = float64(st.Plays) / st.WallS
	st.CPUusPerPlay = st.CPUS * 1e6 / float64(st.Plays)
	return st, nil
}

// fastestWindow returns the index of the window with the highest
// plays_per_s among those whose traced flag matches, or -1.
func fastestWindow(ws []windowStat, traced bool) int {
	best := -1
	for i, w := range ws {
		if w.Traced == traced && (best < 0 || w.PlaysPerS > ws[best].PlaysPerS) {
			best = i
		}
	}
	return best
}

// windowSpreadPct is how far below the fastest window the median window
// ran, as a share of the fastest: how much of the run the host spent away
// from its best. (With forty short windows the slowest one says little —
// one collection or one descheduling is enough to sink it.)
func windowSpreadPct(ws []windowStat, traced bool) float64 {
	var rates []float64
	for _, w := range ws {
		if w.Traced == traced {
			rates = append(rates, w.PlaysPerS)
		}
	}
	if len(rates) == 0 {
		return 0
	}
	sort.Float64s(rates)
	fastest := rates[len(rates)-1]
	return 100 * (fastest - rates[len(rates)/2]) / fastest
}

// phaseResult is what one child process reports to the parent.
type phaseResult struct {
	Workload string       `json:"workload"`
	Phase    string       `json:"phase"`
	SetupS   float64      `json:"setup_s"`
	Windows  []windowStat `json:"windows,omitempty"`
	// CPUusPerPlay is the fastest untraced window's cpu_us_per_play,
	// TracedCPUusPerPlay the fastest traced window's.
	CPUusPerPlay       float64 `json:"cpu_us_per_play,omitempty"`
	TracedCPUusPerPlay float64 `json:"traced_cpu_us_per_play,omitempty"`
	// EndToEnd holds the measure phase's metrics, Layer every per-layer
	// metric the phase could establish.
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	StoreFS   string             `json:"store_fs,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// phaseConfig is what a child needs to know.
type phaseConfig struct {
	workload string
	phase    string
	seed     uint64
	seconds  int
	quick    bool
	storeDir string
	outDir   string
}

const (
	phaseMeasure = "measure"
	phaseTraced  = "traced"
	phaseFixture = "fixture"
	phaseLayers  = "layers"
)

// buildFixture generates the workload's inputs from the seed, then builds
// the fixture and times the build.
func buildFixture(cfg phaseConfig) (fixture, shape, float64, error) {
	sh, err := shapeFor(cfg.workload, cfg.seconds, cfg.quick)
	if err != nil {
		return nil, sh, 0, err
	}
	specs, err := genSpecs(cfg.workload, sh, cfg.seed)
	if err != nil {
		return nil, sh, 0, err
	}
	fx, err := newFixture(cfg, sh, specs)
	if err != nil {
		return nil, sh, 0, err
	}
	t0 := time.Now()
	if err := fx.build(); err != nil {
		fx.close()
		return nil, sh, 0, fmt.Errorf("%s fixture: %w", cfg.workload, err)
	}
	setup := time.Since(t0).Seconds()
	// The windows start from a collected heap, not from wherever the
	// build's garbage left the collector's pacing.
	runtime.GC()
	return fx, sh, setup, nil
}

// runFixturePhase builds the fixture cold and reports only how long that
// took: one of the three samples setup_s is the fastest of.
func runFixturePhase(cfg phaseConfig) (phaseResult, error) {
	res := phaseResult{Workload: cfg.workload, Phase: cfg.phase, StoreFS: fsType(cfg.storeDir)}
	fx, _, setup, err := buildFixture(cfg)
	if err != nil {
		return res, err
	}
	fx.close()
	res.SetupS = setup
	return res, nil
}

// runMeasurePhase is the untraced measured run: fixed-work windows, the
// fastest of which supplies the timing metrics.
func runMeasurePhase(cfg phaseConfig) (phaseResult, error) {
	res := phaseResult{Workload: cfg.workload, Phase: cfg.phase, StoreFS: fsType(cfg.storeDir)}
	fx, sh, setup, err := buildFixture(cfg)
	if err != nil {
		return res, err
	}
	defer fx.close()
	res.SetupS = setup

	r := newWindowRunner(fx, sh, sh.windows, false)
	res.Windows = make([]windowStat, 0, sh.windows)
	var ms0, ms1 runtime.MemStats
	steal0 := readCPUTimes()
	runtime.ReadMemStats(&ms0)
	for w := 0; w < sh.windows; w++ {
		st, err := r.run(w, false)
		if err != nil {
			return res, err
		}
		res.Windows = append(res.Windows, st)
		fmt.Fprintf(os.Stderr, "  %s window %d: %.0f plays/s p50 %.1f us\n", cfg.workload, w, st.PlaysPerS, st.P50us)
	}
	runtime.ReadMemStats(&ms1)
	steal1 := readCPUTimes()
	goroutines := runtime.NumGoroutine()
	// The recorder is the benchmark's, not the program's: let it go before
	// the live heap is taken. The fixture stays.
	r.hists, r.merged = nil, nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	plays := r.finish(&res)
	best := res.Windows[fastestWindow(res.Windows, false)]
	res.CPUusPerPlay = best.CPUusPerPlay
	res.EndToEnd = map[string]float64{
		mPlaysPerS:    best.PlaysPerS,
		mReqP50:       best.P50us,
		mReqP90:       best.P90us,
		mCPUPerPlay:   best.CPUusPerPlay,
		mAllocsPerPly: float64(ms1.Mallocs-ms0.Mallocs) / float64(plays),
		mLiveHeapMB:   float64(live.HeapAlloc) / (1 << 20),
		mSetupS:       setup,
	}
	res.Layer = map[string]float64{}
	runtimeLayer(res.Layer, &ms0, &ms1, plays, goroutines)
	clientLayer(res.Layer, res.Windows, steal0, steal1)
	return res, nil
}

// runtimeLayer fills the runtime.* rows from the MemStats either side of
// the windows.
func runtimeLayer(layer map[string]float64, before, after *runtime.MemStats, plays, goroutines int) {
	cycles := float64(after.NumGC - before.NumGC)
	layer["runtime.gc_cycles_per_kplay"] = 1000 * cycles / float64(plays)
	layer["runtime.gc_pause_ms"] = 0
	if cycles > 0 {
		layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / cycles / 1e6
	}
	layer["runtime.bytes_per_play"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(plays)
	layer["runtime.goroutines"] = float64(goroutines)
}

// clientLayer fills the client.* rows: the tail of the fastest untraced
// window, the spread of the windows, and the hypervisor's steal share.
func clientLayer(layer map[string]float64, ws []windowStat, steal0, steal1 cpuTimes) {
	best := ws[fastestWindow(ws, false)]
	layer["client.req_p99_us"] = best.P99us
	layer["client.req_pmax_us"] = best.PMaxus
	layer["client.window_spread_pct"] = windowSpreadPct(ws, false)
	layer["client.steal_pct"] = stealPct(steal0, steal1)
}
