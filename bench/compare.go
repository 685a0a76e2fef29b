package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// manifestFile is the part of BENCHMARK.json the benchmark reads back.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the current directory or its
// parent (go run ./bench runs in the repository root, go test in this
// directory).
func loadManifest() (*manifestFile, error) {
	var firstErr error
	for _, c := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifestFile
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// loadSet reads one set of runs: a result file, or every result file in a
// directory.
func loadSet(path string) ([]*resultFile, error) {
	names := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if names, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(names)
	}
	var set []*resultFile
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var file resultFile
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if file.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", name, file.Schema, resultSchema)
		}
		set = append(set, &file)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

// valuesOf collects one metric of one workload across a set's runs.
func valuesOf(set []*resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, file := range set {
		for _, wr := range file.Workloads {
			if v, ok := wr.EndToEnd[metric]; ok && wr.Workload == workload {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// how the benchmark driver takes a metric's spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the distance between the first and third quartile as a
// share of the median.
func spreadOf(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the table: set B's runs of one metric held
// against set A's.
type comparison struct {
	medA, medB       float64
	worse            float64 // how far medB is on the wrong side of medA, as a share of medA
	spreadA, spreadB float64
	verdict          string
}

// judge compares two sets' runs of one metric. A median beyond the bound
// is a regression; within it, the row is only ok when both sets' own
// spread is within the bound too — otherwise the runs cannot tell
// "unchanged" from "changed", unless every run of B reads better than
// every run of A.
func judge(a, b []float64, better string, bound float64) comparison {
	c := comparison{spreadA: spreadOf(a), spreadB: spreadOf(b), verdict: verdictOK}
	_, c.medA, _ = quartiles(a)
	_, c.medB, _ = quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if c.medA != 0 {
		c.worse = sign * (c.medB - c.medA) / c.medA
	}
	switch {
	case c.worse > bound:
		c.verdict = verdictRegressed
	case c.spreadA > bound || c.spreadB > bound:
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					c.verdict = verdictUnresolved
				}
			}
		}
	}
	return c
}

// compareMain prints one row per workload × end-to-end metric and fails
// unless every row is ok.
func compareMain(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two sets of result files: go run ./bench -compare A B")
	}
	manifest, err := loadManifest()
	if err != nil {
		return err
	}
	setA, err := loadSet(args[0])
	if err != nil {
		return err
	}
	setB, err := loadSet(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d runs)   B: %s (%d runs)\n", args[0], len(setA), args[1], len(setB))
	fmt.Fprintf(w, "%-22s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse %", "bound %", "iqr A %", "iqr B %", "verdict")
	bad := 0
	for _, wl := range manifest.Workloads {
		for _, m := range manifest.EndToEnd {
			a, b := valuesOf(setA, wl.Name, m.Name), valuesOf(setB, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-22s %-16s missing from a set\n", wl.Name, m.Name)
				bad++
				continue
			}
			c := judge(a, b, m.Better, m.Bound)
			fmt.Fprintf(w, "%-22s %-16s %14.4f %14.4f %8.2f %7.1f %8.2f %8.2f  %s\n",
				wl.Name, m.Name, c.medA, c.medB, 100*c.worse, 100*m.Bound, 100*c.spreadA, 100*c.spreadB, c.verdict)
			if c.verdict != verdictOK {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not ok", bad)
	}
	return nil
}
