package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	ga "gameauthority"
)

// traceRing is the span ring of the traced windows. The tracer keeps the
// latest spans only; a distributed play records a few hundred, so this
// holds the last several hundred plays — whole passes over the sessions,
// because a window is a whole number of passes.
const traceRing = 1 << 17

// gaugeSampleEvery is how often the traced run samples the shard-loop
// queue gauge. Both the traced and the untraced windows of the run carry
// the sampler, so it cancels out of trace.overhead_pct.
const gaugeSampleEvery = 50 * time.Millisecond

// runTracedPhase is the short re-run behind the per-workload layer rows:
// windows alternate tracing off and on, /metrics is scraped either side,
// and the last traced window's spans — the program's and the client's own
// — are written as one Chrome trace file.
func runTracedPhase(cfg phaseConfig) (phaseResult, error) {
	res := phaseResult{Workload: cfg.workload, Phase: cfg.phase, StoreFS: fsType(cfg.storeDir)}
	fx, sh, setup, err := buildFixture(cfg)
	if err != nil {
		return res, err
	}
	defer fx.close()
	res.SetupS = setup

	r := newWindowRunner(fx, sh, sh.traceWindows, true)
	pulses0, messages0 := fx.netStats()
	var ms0, ms1 runtime.MemStats
	steal0 := readCPUTimes()
	runtime.ReadMemStats(&ms0)

	sampler := startGaugeSampler("gameauthority_shard_loop_queue_depth")
	var epoch time.Time
	for w := 0; w < sh.traceWindows; w++ {
		traced := w%2 == 1
		if traced {
			ga.EnableTracing(traceRing, 1)
			epoch = time.Now()
			r.spanN = [clients]int{}
		}
		st, err := r.run(w, traced)
		ga.DisableTracing()
		if err != nil {
			sampler.stop()
			return res, err
		}
		res.Windows = append(res.Windows, st)
		fmt.Fprintf(os.Stderr, "  %s window %d (traced=%v): %.0f plays/s\n", cfg.workload, w, traced, st.PlaysPerS)
	}
	queueMax := sampler.stop()

	runtime.ReadMemStats(&ms1)
	steal1 := readCPUTimes()
	goroutines := runtime.NumGoroutine()
	pulses1, messages1 := fx.netStats()

	plays := r.finish(&res)
	layer := map[string]float64{}
	res.Layer = layer
	runtimeLayer(layer, &ms0, &ms1, plays, goroutines)
	clientLayer(layer, res.Windows, steal0, steal1)

	untraced := res.Windows[fastestWindow(res.Windows, false)]
	tracedBest := res.Windows[fastestWindow(res.Windows, true)]
	layer["trace.overhead_pct"] = 100 * (untraced.PlaysPerS - tracedBest.PlaysPerS) / untraced.PlaysPerS
	// The end-to-end row the layer rows are reconciled against comes from
	// this run's own fastest untraced window.
	res.CPUusPerPlay, res.TracedCPUusPerPlay = untraced.CPUusPerPlay, tracedBest.CPUusPerPlay

	layer["core.pulses_per_play"] = float64(pulses1-pulses0) / float64(plays)
	layer["core.messages_per_play"] = float64(messages1-messages0) / float64(plays)

	kplays := float64(plays) / 1000
	delta := func(name string) float64 { return r.scraped[name] }
	layer["store.wal_records_per_kplay"] = delta("gameauthority_wal_records_total") / kplays
	layer["store.snapshots_per_kplay"] = delta("gameauthority_snapshots_total") / kplays
	layer["store.epochs_per_kplay"] = delta("gameauthority_commit_epochs_total") / kplays
	layer["store.fsyncs_per_kplay"] = delta("gameauthority_fsyncs_total") / kplays
	layer["store.tickets_per_epoch"] = 0
	if epochs := delta("gameauthority_commit_epochs_total"); epochs > 0 {
		layer["store.tickets_per_epoch"] = delta("gameauthority_wal_records_total") / epochs
	}
	layer["store.wal_bytes_per_play"] = 0
	if walBytes, walPlays := fx.walFootprint(); walPlays > 0 {
		layer["store.wal_bytes_per_play"] = float64(walBytes) / float64(walPlays)
	}
	layer["hub.server_roundtrip_p50_us"] = promQuantile(r.scraped, "gameauthority_ws_roundtrip_seconds", 0.5) * 1e6
	layer["hub.queue_depth_max"] = queueMax

	var program bytes.Buffer
	if err := ga.WriteTrace(&program); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	spanLayer(layer, program.Bytes())
	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeTraceFile(res.TraceFile, program.Bytes(), r, epoch); err != nil {
		return res, err
	}
	return res, nil
}

// spanLayer turns the program's span ring into per-play times: the summed
// duration of each span kind over the plays whose root spans the ring
// holds.
func spanLayer(layer map[string]float64, trace []byte) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			Args struct {
				V int64 `json:"v"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	rows := map[string]string{
		"pulse.dolev-strong": "trace.pulse_dolev_strong_us_per_play",
		"pulse.eig-resolve":  "trace.pulse_eig_resolve_us_per_play",
		"pulse.clock-sync":   "trace.pulse_clock_sync_us_per_play",
		"wal.append":         "trace.wal_append_us_per_play",
		"commit.epoch":       "trace.commit_epoch_us_per_play",
	}
	for _, row := range rows {
		layer[row] = 0
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return
	}
	sums := map[string]float64{}
	plays := 0.0
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "play":
			plays++
		case "play.batch":
			plays += float64(ev.Args.V)
		default:
			sums[ev.Name] += ev.Dur
		}
	}
	if plays == 0 {
		return
	}
	for span, row := range rows {
		layer[row] = sums[span] / plays
	}
}

// writeTraceFile writes the program's Chrome trace with the client's own
// request spans spliced into the same event list (pid 2, one row per
// client).
func writeTraceFile(path string, program []byte, r *windowRunner, epoch time.Time) error {
	const tail = `],"displayTimeUnit"`
	cut := bytes.LastIndex(program, []byte(tail))
	if cut < 0 {
		return fmt.Errorf("trace file: unexpected trace document shape")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.Write(program[:cut])
	first := bytes.HasSuffix(program[:cut], []byte("["))
	for c := range r.spans {
		n := r.spanN[c]
		if n > len(r.spans[c]) {
			n = len(r.spans[c])
		}
		for _, s := range r.spans[c][:n] {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, `{"name":"client.request","cat":"client","ph":"X","pid":2,"tid":%d,"ts":%.3f,"dur":%.3f}`,
				c, float64(s.start.Sub(epoch).Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3)
		}
	}
	w.Write(program[cut:])
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape drives a GET /metrics handler and parses the exposition into
// series → value, keyed as the line spells the series.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rec.Body.String())
}

func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// promSeries finds one series in an exposition without parsing the rest.
func promSeries(text []byte, series string) (float64, bool) {
	i := bytes.Index(text, []byte("\n"+series+" "))
	if i < 0 {
		return 0, false
	}
	line := text[i+len(series)+2:]
	if end := bytes.IndexByte(line, '\n'); end >= 0 {
		line = line[:end]
	}
	v, err := strconv.ParseFloat(string(line), 64)
	return v, err == nil
}

// promQuantile estimates a quantile, in seconds, of a histogram family's
// cumulative buckets, interpolating inside the bucket. The buckets are
// powers of two, so this is a coarse figure.
func promQuantile(scraped map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var buckets []bucket
	prefix := family + `_bucket{`
	for series, v := range scraped {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		leText := series[i+4:]
		leText = leText[:strings.IndexByte(leText, '"')]
		le := math.Inf(1)
		if leText != "+Inf" {
			le, _ = strconv.ParseFloat(leText, 64)
		}
		buckets = append(buckets, bucket{le, v})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].count
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) || b.count == below {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

// gaugeSampler polls one gauge of ga.WriteObsMetrics and keeps its maximum.
type gaugeSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startGaugeSampler(name string) *gaugeSampler {
	s := &gaugeSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(gaugeSampleEvery)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				buf.Reset()
				if ga.WriteObsMetrics(&buf) != nil {
					continue
				}
				if v, ok := promSeries(buf.Bytes(), name); ok && v > s.max {
					s.max = v
				}
			}
		}
	}()
	return s
}

// stop ends the sampler and returns the maximum it saw.
func (s *gaugeSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	return s.max
}
