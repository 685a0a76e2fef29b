package main

import (
	"fmt"
	"io"
	"strings"
)

const resultSchema = "gameauthority-bench/1"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one run learned about one workload.
type workloadResult struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Windows are all the measured windows, so the spread behind the
	// fastest-window figures stays visible.
	Windows      []windowStat           `json:"windows"`
	Fastest      int                    `json:"fastest_window"`
	SetupSamples []float64              `json:"setup_samples_s"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Correct      bool                   `json:"correct"`
	Problems     []string               `json:"problems,omitempty"`
	Warnings     []string               `json:"warnings,omitempty"`
	StoreFS      string                 `json:"store_fs"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

// resultFile is the document a full run writes.
type resultFile struct {
	Schema    string            `json:"schema"`
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Started   string            `json:"started"`
	Workloads []*workloadResult `json:"workloads"`
}

// workloadWhy records why each workload was chosen; BENCHMARK.json
// carries the same lines.
var workloadWhy = map[string]string{
	wlWSPure:       "8192 volatile pure sessions over /ws, one round per request: the play is ~2 us, so wire, hub, the shard loops and the registry do the work, past the CPU caches",
	wlInprocDist:   "64 in-process distributed sessions (48 at n=4, 16 at n=7): no wire, no store, so core, bap, clocksync, sim and commit do the work; p50 reads n=4, p90 reads n=7",
	wlDurableBatch: "256 durable pure sessions, PlayN(16) on a group-committed File store: the store's write side does the work and the commit policy, not the CPU, bounds a request",
	wlRecover:      "crash, then restore-on-miss of 1024 journaled sessions of 640 rounds: load, snapshot and WAL decode, replay and digest checks, the store's read side",
}

func newWorkloadResult(name string) *workloadResult {
	return &workloadResult{Workload: name, Why: workloadWhy[name],
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
}

func (wr *workloadResult) absorbCounts(res phaseResult) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Problems = append(wr.Problems, res.Problems...)
	wr.StoreFS = res.StoreFS
}

func (wr *workloadResult) absorbMeasure(res phaseResult) {
	wr.absorbCounts(res)
	for _, def := range endToEndDefs {
		wr.EndToEnd[def.Name] = metricValue{res.EndToEnd[def.Name], def.Unit}
	}
	wr.Windows = res.Windows
	wr.Fastest = fastestWindow(res.Windows, false)
	// The measured run's ten windows say more about the client and the
	// runtime than the traced run's two untraced ones.
	for name, v := range res.Layer {
		wr.setLayer(name, v)
	}
}

// absorbTraced merges the traced phase's rows with the layers phase's and
// reconciles them against the traced run's own CPU per play.
func (wr *workloadResult) absorbTraced(res phaseResult, layers map[string]float64) {
	wr.absorbCounts(res)
	wr.TraceFile = res.TraceFile
	all := map[string]float64{}
	for name, v := range layers {
		all[name] = v
	}
	for name, v := range res.Layer {
		all[name] = v
	}
	reconcile(wr.Workload, all, res.CPUusPerPlay, res.TracedCPUusPerPlay)
	for name, v := range all {
		wr.setLayer(name, v)
	}
}

func (wr *workloadResult) setLayer(name string, v float64) {
	wr.PerLayer[name] = metricValue{v, layerDef(name).Unit}
}

// finish settles correctness and raises the guard-rail warnings: none of
// them fails the run, each says the numbers deserve less trust.
func (wr *workloadResult) finish() {
	wr.Correct = wr.Failed == 0 && wr.Attempted > 0
	if wr.StoreFS != "tmpfs" && (wr.Workload == wlDurableBatch || wr.Workload == wlRecover) {
		wr.Warnings = append(wr.Warnings, fmt.Sprintf("store_fs is %s, not tmpfs: the durable rows include a shared disk's flush latency", wr.StoreFS))
	}
	if v, ok := wr.PerLayer["client.steal_pct"]; ok && v.Value > 5 {
		wr.Warnings = append(wr.Warnings, fmt.Sprintf("client.steal_pct is %.1f (> 5): the hypervisor took CPU away during the run", v.Value))
	}
	if v, ok := wr.PerLayer["client.window_spread_pct"]; ok && v.Value > 25 {
		wr.Warnings = append(wr.Warnings, fmt.Sprintf("client.window_spread_pct is %.1f (> 25): the host was unsteady during the run", v.Value))
	}
}

func printResult(w io.Writer, file *resultFile) {
	h := file.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q store_fs=%s seed=%d seconds=%d commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.StoreFS, file.Seed, file.Seconds, h.GitCommit)
	for _, wr := range file.Workloads {
		printWorkload(w, wr)
	}
}

// printWorkload prints one workload's rows: every metric name once, with
// its value and unit.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", wr.Workload, wr.Why)
	if len(wr.Windows) > 0 {
		rates := make([]string, len(wr.Windows))
		for i, win := range wr.Windows {
			rates[i] = fmt.Sprintf("%.0f", win.PlaysPerS)
		}
		fmt.Fprintf(w, "window plays/s: %s (fastest: #%d)\n", strings.Join(rates, " "), wr.Fastest)
	}
	if len(wr.SetupSamples) > 0 {
		fmt.Fprintf(w, "cold set-ups (s): %.3f\n", wr.SetupSamples)
	}
	printRows := func(title string, defs []metricDef, values map[string]metricValue) {
		if len(values) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, def := range defs {
			if v, ok := values[def.Name]; ok {
				fmt.Fprintf(w, "  %-40s %14.4f %s\n", def.Name, v.Value, v.Unit)
			}
		}
	}
	printRows("end-to-end", endToEndDefs, wr.EndToEnd)
	printRows("per-layer", perLayerDefs, wr.PerLayer)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d correct=%v store_fs=%s\n", wr.Attempted, wr.Failed, wr.Correct, wr.StoreFS)
	if wr.TraceFile != "" {
		fmt.Fprintf(w, "trace file: %s\n", wr.TraceFile)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	for _, warn := range wr.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
}
