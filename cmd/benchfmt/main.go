// Command benchfmt turns `go test -bench` output into a persisted JSON
// baseline. It tees stdin through to stdout (so the human-readable bench
// table still prints) while parsing every Benchmark line into a machine-
// readable artifact:
//
//	go test -run '^$' -bench '^BenchmarkPlay' -benchmem . | go run ./cmd/benchfmt -out BENCH_PR2.json
//
// The artifact records ns/op, B/op, allocs/op, and any custom
// b.ReportMetric pairs per benchmark, plus the host fingerprint lines
// (goos/goarch/cpu) and the GOMAXPROCS the run used — without that
// context a baseline number is meaningless. See DESIGN.md §"Performance
// model" for how to read the file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the whole artifact.
type Baseline struct {
	Schema     string            `json:"schema"`
	Command    string            `json:"command"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("out", "BENCH_PR2.json", "path of the JSON baseline to write")
	command := flag.String("command", "go test -bench '^BenchmarkPlay' -benchmem", "canonical invocation recorded in the artifact")
	flag.Parse()

	base := Baseline{
		Schema:     "gameauthority-bench/v1",
		Command:    *command,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Result{},
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	failed := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // tee: keep the human-readable table
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "FAIL"):
			failed = true
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2][1:]); err == nil {
				base.GOMAXPROCS = p
			}
		}
		// The measurement tail alternates "<value> <unit>" pairs.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		base.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: read: %v\n", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchfmt: bench run failed; not writing a baseline")
		os.Exit(1)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchfmt: no benchmark lines found on stdin")
		os.Exit(1)
	}

	data, err := marshalStable(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: encode: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "benchfmt: wrote %s (%s)\n", *out, strings.Join(names, ", "))
}

// marshalStable renders the baseline with indentation (Go's encoder
// already sorts map keys, so the artifact diffs cleanly between runs).
func marshalStable(b Baseline) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
