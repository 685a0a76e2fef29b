package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// These tests are timing-free: they hold the recorder, the input
// generator, the names and the comparison rule, and drive every workload
// once at -quick size so the benchmark cannot rot unnoticed.

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := splitmix(7)
	var values []float64
	h := newHist()
	for i := 0; i < 20000; i++ {
		// Log-uniform over 100 ns .. 10 s, the range requests live in.
		v := math.Exp(math.Log(100) + float64(rng.next()%1_000_000)/1e6*math.Log(1e8))
		values = append(values, math.Floor(v))
		h.record(int64(v))
	}
	sort.Float64s(values)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := values[int(math.Ceil(q*float64(len(values))))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%v = %v, exact %v: off by more than 1%%", q, got, exact)
		}
	}
	tail, pct := h.tail()
	if exact := values[len(values)-11]; math.Abs(tail-exact)/exact > 0.01 || pct != 100*float64(len(values)-10)/float64(len(values)) {
		t.Errorf("tail = %v at p%v, exact %v", tail, pct, exact)
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 1 << 20, 1<<40 - 1, 1 << 50} {
		if lo, hi := histBounds(histIndex(v)); (v < lo || v >= hi) && v < 1<<histMaxExp {
			t.Errorf("value %d lands in bucket [%d, %d)", v, lo, hi)
		}
	}
}

func TestFastestWindowSelection(t *testing.T) {
	ws := []windowStat{
		{PlaysPerS: 90}, {PlaysPerS: 120, Traced: true}, {PlaysPerS: 100}, {PlaysPerS: 60}, {PlaysPerS: 80, Traced: true},
	}
	if got := fastestWindow(ws, false); got != 2 {
		t.Errorf("fastest untraced window = %d, want 2", got)
	}
	if got := fastestWindow(ws, true); got != 1 {
		t.Errorf("fastest traced window = %d, want 1", got)
	}
	if got := windowSpreadPct(ws, false); got != 10 {
		t.Errorf("untraced spread = %v%%, want 10 (median 90 against fastest 100)", got)
	}
	if got := fastestWindow(nil, false); got != -1 {
		t.Errorf("fastest of nothing = %d, want -1", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, workload := range workloadNames {
		sh, err := shapeFor(workload, referenceSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		a, err := genSpecs(workload, sh, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genSpecs(workload, sh, 42)
		other, _ := genSpecs(workload, sh, 43)
		if len(a) != sh.sessions {
			t.Fatalf("%s: %d specs, want %d", workload, len(a), sh.sessions)
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].JSON, b[i].JSON) || a[i].Deviant != b[i].Deviant {
				t.Fatalf("%s: spec %d differs between two generations from one seed", workload, i)
			}
			differs = differs || !bytes.Equal(a[i].JSON, other[i].JSON)
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 generate the same specs", workload)
		}
		for block := 0; block < len(a); block += 8 {
			deviants := 0
			for _, spec := range a[block : block+8] {
				if spec.Deviant {
					deviants++
				}
			}
			if want := map[bool]int{true: 0, false: 1}[workload == wlRecover]; deviants != want {
				t.Errorf("%s: sessions %d..%d carry %d deviants, want %d", workload, block, block+7, deviants, want)
			}
		}
	}
	if _, err := shapeFor("nope", referenceSeconds, false); err == nil {
		t.Error("unknown workload was sized")
	}
}

func TestManifestNamesEveryMetric(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("manifest has %d workloads, want %d", len(m.Workloads), len(workloadNames))
	}
	for i, wl := range m.Workloads {
		if wl.Name != workloadNames[i] || wl.Why != workloadWhy[wl.Name] {
			t.Errorf("manifest workload %d is %q (%q), the program has %q (%q)", i, wl.Name, wl.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", wl.Name, len(wl.Why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("manifest lists %d %s metrics, the program %d", len(got), kind, len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			if w := want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, w)
			}
			if seen[g.Name] {
				t.Errorf("%s is listed twice", g.Name)
			}
			seen[g.Name] = true
		}
	}
	same("end_to_end", m.EndToEnd, endToEndDefs)
	same("per_layer", m.PerLayer, perLayerDefs)
	setup := m.EndToEnd[len(m.EndToEnd)-1]
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 || e.Bound > setup.Bound {
			t.Errorf("%s: bound %v must be positive, at most 0.25 and at most setup_s's %v", e.Name, e.Bound, setup.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, []float64{101, 100, 100, 99, 101}, "lower", verdictOK},
		{"slower latency", steady, []float64{111, 112, 110, 111, 113}, "lower", verdictRegressed},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, "lower", verdictOK},
		{"lower rate", steady, []float64{88, 89, 90, 88, 87}, "higher", verdictRegressed},
		{"noisy", []float64{100, 80, 120, 95, 110}, []float64{104, 85, 118, 90, 112}, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{100, 80, 120, 95, 110}, []float64{60, 50, 70, 55, 65}, "lower", verdictOK},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.08).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// inProcess runs a phase in the test's own process.
func inProcess(_ context.Context, cfg phaseConfig) (phaseResult, error) { return runPhase(cfg) }

func quickBench(t *testing.T) *bench {
	t.Helper()
	return &bench{ctx: context.Background(), seed: 3, seconds: referenceSeconds, quick: true, outDir: t.TempDir(), spawn: inProcess}
}

// TestQuickRun drives all four workloads through every phase at -quick
// size: every output check must pass, every metric name of BENCHMARK.json
// must be printed exactly once per workload with its unit, a trace file
// must exist per workload, and the result file must compare clean against
// itself.
func TestQuickRun(t *testing.T) {
	b := quickBench(t)
	var out bytes.Buffer
	if err := b.fullMain(&out); err != nil {
		t.Fatalf("quick run: %v\n%s", err, out.String())
	}
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(out.String(), "\n== ")[1:]
	if len(sections) != len(workloadNames) {
		t.Fatalf("output has %d workload sections, want %d", len(sections), len(workloadNames))
	}
	for i, section := range sections {
		if !strings.HasPrefix(section, workloadNames[i]+" ==") {
			t.Errorf("section %d is not %s", i, workloadNames[i])
		}
		for _, metric := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
			rows := 0
			for _, line := range strings.Split(section, "\n") {
				if f := strings.Fields(line); len(f) == 3 && f[0] == metric.Name && f[2] == metric.Unit {
					rows++
				}
			}
			if rows != 1 {
				t.Errorf("%s: %s is printed %d times with unit %s, want once", workloadNames[i], metric.Name, rows, metric.Unit)
			}
		}
		if !strings.Contains(section, "failed=0 correct=true") {
			t.Errorf("%s: output checks did not pass", workloadNames[i])
		}
		if _, err := os.Stat(filepath.Join(b.outDir, "trace-"+workloadNames[i]+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", workloadNames[i], err)
		}
	}

	set, err := loadSet(b.outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || len(set[0].Workloads) != len(workloadNames) || set[0].Host.NProc == 0 || set[0].Seed != 3 {
		t.Fatalf("result file does not describe the run: %+v", set[0])
	}
	for _, wr := range set[0].Workloads {
		if len(wr.Windows) != 1 || len(wr.SetupSamples) != 3 || wr.Attempted == 0 {
			t.Errorf("%s: %d windows, %d set-up samples, %d operations", wr.Workload, len(wr.Windows), len(wr.SetupSamples), wr.Attempted)
		}
	}
	var table bytes.Buffer
	if err := compareMain(&table, []string{b.outDir, b.outDir}); err != nil {
		t.Errorf("a run does not compare clean against itself: %v\n%s", err, table.String())
	}
}

// TestDriverLine holds the benchmark-driver form to its contract: the last
// line is one JSON object with exactly four keys, and its metrics are
// exactly the end-to-end set without tracing and the per-layer set with.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		var out bytes.Buffer
		if err := quickBench(t).driverMain(&out, wlDurableBatch, trace); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %d: last line is not the result object: %v", trace, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %d: result line %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, def := range defs {
			if v, ok := line.Metrics[def.Name]; !ok || v.Unit != def.Unit {
				t.Errorf("trace %d: metric %s is %+v (present %v), want unit %s", trace, def.Name, v, ok, def.Unit)
			}
		}
	}
	if err := quickBench(t).driverMain(&bytes.Buffer{}, "nope", 0); err == nil {
		t.Error("an unknown workload ran")
	}
}

// TestFailedCheckFailsTheRun holds the other half of the contract: a
// session that fails its output check is a failed operation, and a run
// with one is not correct.
func TestFailedCheckFailsTheRun(t *testing.T) {
	sh, _ := shapeFor(wlWSPure, referenceSeconds, true)
	specs, err := genSpecs(wlWSPure, sh, 1)
	if err != nil {
		t.Fatal(err)
	}
	var deviant, honest sessionSpec
	for _, spec := range specs {
		if spec.Deviant {
			deviant = spec
		} else {
			honest = spec
		}
	}
	for _, tc := range []struct {
		spec               sessionSpec
		fouls, convictions int
		problem            bool
	}{
		{deviant, 1, 1, false}, {deviant, 3, 0, true}, {deviant, 0, 0, true},
		{honest, 0, 0, false}, {honest, 1, 0, true}, {honest, 1, 1, true},
	} {
		if got := verdictProblem(tc.spec, tc.fouls, tc.convictions); (got != "") != tc.problem {
			t.Errorf("%s with %d fouls, %d convictions: problem %q, want one: %v", tc.spec.ID, tc.fouls, tc.convictions, got, tc.problem)
		}
	}
	wr := newWorkloadResult(wlWSPure)
	wr.absorbCounts(phaseResult{Attempted: 10, Failed: 1, Problems: []string{"x"}, StoreFS: "tmpfs"})
	if wr.finish(); wr.Correct {
		t.Error("a run with a failed operation is reported correct")
	}
}
