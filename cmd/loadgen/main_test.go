package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestLoadMixCoversAllDriversAndFamilies(t *testing.T) {
	mix := loadMix()
	drivers := map[string]bool{}
	families := 0
	for _, sc := range mix {
		drivers[sc.driver] = true
		if sc.driver == "pure" {
			families++
		}
		if sc.weight <= 0 {
			t.Fatalf("%s: non-positive default weight", sc.name)
		}
	}
	for _, d := range []string{"pure", "mixed", "rra", "distributed"} {
		if !drivers[d] {
			t.Fatalf("default mix misses driver %q", d)
		}
	}
	if families < 5 {
		t.Fatalf("default mix has %d catalog families, want ≥ 5", families)
	}
}

func TestApplyMix(t *testing.T) {
	mix, err := applyMix(loadMix(), "congestion=9,rra=0")
	if err != nil {
		t.Fatal(err)
	}
	foundCongestion := false
	for _, sc := range mix {
		if sc.name == "rra" {
			t.Fatal("weight 0 must drop the scenario")
		}
		if sc.name == "congestion" {
			foundCongestion = true
			if sc.weight != 9 {
				t.Fatalf("congestion weight = %d, want 9", sc.weight)
			}
		}
	}
	if !foundCongestion {
		t.Fatal("congestion missing after override")
	}

	for _, bad := range []string{"nope=1", "congestion", "congestion=-1", "congestion=x"} {
		if _, err := applyMix(loadMix(), bad); err == nil {
			t.Fatalf("applyMix(%q) should fail", bad)
		}
	}
	// Zeroing one scenario is fine; zeroing every scenario is an error.
	var allZero []string
	for _, sc := range loadMix() {
		allZero = append(allZero, sc.name+"=0")
	}
	if _, err := applyMix(loadMix(), strings.Join(allZero, ",")); err == nil {
		t.Fatal("an all-zero mix should fail")
	}
}

func TestSessionCountsExactAndPositive(t *testing.T) {
	mix := loadMix()
	for _, sessions := range []int{len(mix), 50, 1000, 1001} {
		counts := sessionCounts(mix, sessions)
		total := 0
		for i, c := range counts {
			if c < 1 {
				t.Fatalf("sessions=%d: scenario %s got %d sessions", sessions, mix[i].name, c)
			}
			total += c
		}
		if total != sessions {
			t.Fatalf("sessions=%d: counts sum to %d", sessions, total)
		}
	}
	// Skewed weights force the claw-back path.
	skew := []scenario{
		{name: "a", weight: 100},
		{name: "b", weight: 1},
		{name: "c", weight: 1},
	}
	counts := sessionCounts(skew, 3)
	if counts[0]+counts[1]+counts[2] != 3 {
		t.Fatalf("skewed counts %v do not sum to 3", counts)
	}
}

// benchLine is the shape of a `go test -bench` result line; loadgen's
// output must stay readable by anything that reads those (benchstat).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+(.*)$`)

func TestWriteBenchLineParseableByBenchfmt(t *testing.T) {
	var buf bytes.Buffer
	writeBenchLine(&buf, "Loadgen/scenario=x/driver=pure", []float64{100, 200, 300}, 2, time.Second)
	line := strings.TrimSuffix(buf.String(), "\n")
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("bench line %q is not a go-bench result line", line)
	}
	if m[3] != "3" {
		t.Fatalf("iterations = %s, want 3 plays", m[3])
	}
	for _, unit := range []string{"ns/op", "plays/s", "p50-ns/op", "p99-ns/op", "sessions"} {
		if !strings.Contains(m[4], unit) {
			t.Fatalf("bench line %q misses unit %s", line, unit)
		}
	}
	// Empty samples must emit nothing rather than a 0-iteration line.
	buf.Reset()
	writeBenchLine(&buf, "Loadgen/empty", nil, 0, time.Second)
	if buf.Len() != 0 {
		t.Fatalf("empty sample produced %q", buf.String())
	}
}

// TestRunInProcessMini drives the full harness end to end at CI size:
// every scenario family, every driver, real sessions, real plays.
func TestRunInProcessMini(t *testing.T) {
	var out bytes.Buffer
	cfg := config{sessions: 16, plays: 2, seed: 11, out: &out, info: io.Discard}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkLoadgen/transport=inproc/total") {
		t.Fatalf("no total line in output:\n%s", got)
	}
	for _, sc := range loadMix() {
		if !strings.Contains(got, "scenario="+sc.name+"/") {
			t.Fatalf("scenario %s missing from output:\n%s", sc.name, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "Benchmark") && benchLine.FindStringSubmatch(line) == nil {
			t.Fatalf("unparseable bench line %q", line)
		}
	}
}

// TestRunSelfserveMini exercises the HTTP transport hermetically.
func TestRunSelfserveMini(t *testing.T) {
	var out bytes.Buffer
	cfg := config{sessions: 16, plays: 1, seed: 3, selfserve: true, out: &out, info: io.Discard}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkLoadgen/transport=http/total") {
		t.Fatalf("no total line in output:\n%s", out.String())
	}
}

// TestRunWSMini exercises the streaming transport hermetically: the full
// mix multiplexed over two WebSocket connections.
func TestRunWSMini(t *testing.T) {
	var out bytes.Buffer
	cfg := config{sessions: 16, plays: 2, seed: 5, selfserve: true,
		transport: "ws", conns: 2, out: &out, info: io.Discard}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkLoadgen/transport=ws/total") {
		t.Fatalf("no total line in output:\n%s", got)
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "Benchmark") && benchLine.FindStringSubmatch(line) == nil {
			t.Fatalf("unparseable bench line %q", line)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	for _, cfg := range []config{
		{sessions: 0, plays: 1},
		{sessions: 1, plays: 0},
		{sessions: 4, plays: 1}, // below the mix size
		{sessions: 100, plays: 1, httpBase: "http://x", selfserve: true}, // exclusive transports
		{sessions: 100, plays: 1, mix: "nope=1"},
		{sessions: 100, plays: 1, crash: -1},
		{sessions: 100, plays: 1, crash: 1, selfserve: true}, // crash is in-process only
		{sessions: 100, plays: 1, dataDir: "x", selfserve: true},
		{sessions: 100, plays: 1, crash: 1, chaos: true}, // closures cannot be journaled
		{sessions: 100, plays: 1, batch: -1},
		// A chaos batch must fit the history ring: a lost batch ack is
		// healed by replaying orphaned rounds from it.
		{sessions: 100, plays: 1, chaosMode: true, conns: 1, batch: historyLimit + 1},
	} {
		cfg.out, cfg.info = io.Discard, io.Discard
		if err := run(cfg); err == nil {
			t.Fatalf("run(%+v) should fail", cfg)
		}
	}
}

// TestRunCrashMini drives the durable harness through two SIGKILL-style
// crash/recover cycles at CI size: every scenario family and driver must
// be recovered from the write-ahead log with nothing lost, and the crash
// bench line must stay a go-bench result line.
func TestRunCrashMini(t *testing.T) {
	var out bytes.Buffer
	cfg := config{sessions: 16, plays: 4, seed: 7, crash: 2, deviants: 0.25, out: &out, info: io.Discard}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkLoadgen/crash") {
		t.Fatalf("no crash line in output:\n%s", got)
	}
	for _, unit := range []string{"recovered-sessions", "replayed-rounds", "replayed-rounds/s"} {
		if !strings.Contains(got, unit) {
			t.Fatalf("crash line misses %s:\n%s", unit, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "Benchmark") && benchLine.FindStringSubmatch(line) == nil {
			t.Fatalf("unparseable bench line %q", line)
		}
	}
}

// TestRunBatchDurableMini drives the batched durable harness: every
// scenario plays in PlayN batches journaled as single WAL records under
// group commit, crosses one crash/recover cycle, and the bench rows carry
// the /batch= label so volatile and batched artifacts stay distinct.
func TestRunBatchDurableMini(t *testing.T) {
	var out bytes.Buffer
	cfg := config{sessions: 16, plays: 6, seed: 13, batch: 3, crash: 1, out: &out, info: io.Discard}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkLoadgen/transport=inproc/durable/batch=3/total",
		"BenchmarkLoadgen/crash/batch=3",
		"recovered-sessions",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output misses %q:\n%s", want, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "Benchmark") && benchLine.FindStringSubmatch(line) == nil {
			t.Fatalf("unparseable bench line %q", line)
		}
	}
}

// TestSegmentBounds pins the crash-segment split: exact cover, no
// overlap, remainders to early segments.
func TestSegmentBounds(t *testing.T) {
	for _, tc := range []struct{ plays, segments int }{
		{20, 1}, {20, 3}, {7, 3}, {2, 3}, {0, 2}, {1, 4},
	} {
		covered := 0
		prevTo := 0
		for seg := 0; seg < tc.segments; seg++ {
			from, to := segmentBounds(tc.plays, tc.segments, seg)
			if from != prevTo || to < from {
				t.Fatalf("plays=%d segments=%d seg=%d: bounds [%d,%d) after %d", tc.plays, tc.segments, seg, from, to, prevTo)
			}
			covered += to - from
			prevTo = to
		}
		if covered != tc.plays {
			t.Fatalf("plays=%d segments=%d: covered %d", tc.plays, tc.segments, covered)
		}
	}
}
