// Command bench is the repository's one benchmark: four workloads, seven
// end-to-end metrics each, and a per-layer budget. README.md in this
// directory explains the design; BENCHMARK.json at the repository root
// lists the names and the regression bounds.
//
//	go run ./bench                       every workload, every row, one result file
//	go run ./bench -workload ws_pure     one workload's end-to-end rows, as one JSON line
//	go run ./bench -workload ws_pure -trace 1   that workload's per-layer rows
//	go run ./bench -compare A B          hold two sets of result files against the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (the benchmark-driver form)")
		seed     = flag.Uint64("seed", 1, "derives every session seed and the deviant placement")
		seconds  = flag.Int("seconds", referenceSeconds, "sizes the measured phase: the request counts scale with it, so equal -seconds means equal work")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		quick    = flag.Bool("quick", false, "one tiny window per workload, every output check on")
		outDir   = flag.String("out", "bench_out", "directory for result and trace files")
		compare  = flag.Bool("compare", false, "compare two sets of result files (directories or files) against the bounds in BENCHMARK.json")
		child    = flag.String("child", "", "internal: run one phase in this process and print its result")
		storeDir = flag.String("store-dir", "", "internal: where the child puts its File store")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *child != "":
		err = childMain(phaseConfig{workload: *workload, phase: *child, seed: *seed, seconds: *seconds,
			quick: *quick, storeDir: *storeDir, outDir: *outDir})
	case *compare:
		err = compareMain(os.Stdout, flag.Args())
	default:
		if *seconds < 1 {
			err = fmt.Errorf("-seconds must be at least 1")
			break
		}
		b := &bench{ctx: ctx, seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, spawn: spawnChild}
		if *workload != "" {
			err = b.driverMain(os.Stdout, *workload, *trace)
		} else {
			err = b.fullMain(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain runs one phase and prints its result as one JSON document.
func childMain(cfg phaseConfig) error {
	res, err := runPhase(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func runPhase(cfg phaseConfig) (phaseResult, error) {
	switch cfg.phase {
	case phaseMeasure:
		return runMeasurePhase(cfg)
	case phaseTraced:
		return runTracedPhase(cfg)
	case phaseFixture:
		return runFixturePhase(cfg)
	case phaseLayers:
		return runLayersPhase(cfg)
	}
	return phaseResult{}, fmt.Errorf("unknown phase %q", cfg.phase)
}

// spawnChild runs one phase in a fresh process, so that the heap, the
// allocation counters and the process-wide caches (EIG layouts, the obs
// registry) it measures belong to that phase alone.
func spawnChild(ctx context.Context, cfg phaseConfig) (phaseResult, error) {
	var res phaseResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{
		"-child", cfg.phase, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-store-dir", cfg.storeDir, "-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childProcAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s %s: %w", cfg.workload, cfg.phase, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s %s: unreadable result: %w", cfg.workload, cfg.phase, err)
	}
	return res, nil
}

// bench is one invocation of the parent process.
type bench struct {
	ctx     context.Context
	seed    uint64
	seconds int
	quick   bool
	outDir  string
	// spawn runs one phase; the tests substitute an in-process call.
	spawn     func(context.Context, phaseConfig) (phaseResult, error)
	storeRoot string
}

// withStore creates the store root for the children and removes it again.
func (b *bench) withStore(fn func() error) error {
	root, err := chooseStoreRoot(b.outDir)
	if err != nil {
		return err
	}
	b.storeRoot = root
	defer os.RemoveAll(root)
	return fn()
}

func (b *bench) phase(workload, phase string) (phaseResult, error) {
	fmt.Fprintf(os.Stderr, "bench: %s %s\n", workload, phase)
	return b.spawn(b.ctx, phaseConfig{workload: workload, phase: phase, seed: b.seed, seconds: b.seconds,
		quick: b.quick, storeDir: b.storeRoot, outDir: b.outDir})
}

// measureWorkload runs the untraced measured phase plus enough cold
// fixture builds to have three set-up samples, and folds them into the
// workload's end-to-end rows.
func (b *bench) measureWorkload(wr *workloadResult, setups ...float64) error {
	res, err := b.phase(wr.Workload, phaseMeasure)
	if err != nil {
		return err
	}
	setups = append(setups, res.SetupS)
	for len(setups) < 3 {
		fx, err := b.phase(wr.Workload, phaseFixture)
		if err != nil {
			return err
		}
		setups = append(setups, fx.SetupS)
	}
	wr.SetupSamples = setups
	res.EndToEnd[mSetupS] = slices.Min(setups)
	wr.absorbMeasure(res)
	return nil
}

// traceWorkload runs the traced phase and, given the layers phase's rows,
// completes the workload's per-layer rows.
func (b *bench) traceWorkload(wr *workloadResult, layers map[string]float64) (float64, error) {
	res, err := b.phase(wr.Workload, phaseTraced)
	if err != nil {
		return 0, err
	}
	wr.absorbTraced(res, layers)
	return res.SetupS, nil
}

// driverMain is the benchmark-driver form: one workload, one JSON line.
func (b *bench) driverMain(w io.Writer, workload string, trace int) error {
	if _, err := shapeFor(workload, b.seconds, b.quick); err != nil {
		return err
	}
	wr := newWorkloadResult(workload)
	file := b.newResultFile()
	err := b.withStore(func() error {
		file.Host = fingerprint(b.storeRoot)
		if trace == 0 {
			return b.measureWorkload(wr)
		}
		layers, err := b.phase("", phaseLayers)
		if err != nil {
			return err
		}
		_, err = b.traceWorkload(wr, layers.Layer)
		return err
	})
	if err != nil {
		return err
	}
	wr.finish()
	printWorkload(os.Stderr, wr)
	file.Workloads = append(file.Workloads, wr)
	if err := b.writeResult(os.Stderr, file); err != nil {
		return err
	}
	metrics := wr.EndToEnd
	if trace != 0 {
		metrics = wr.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !wr.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// fullMain runs every phase of every workload, prints the tables and
// writes one result file.
func (b *bench) fullMain(w io.Writer) error {
	file := b.newResultFile()
	err := b.withStore(func() error {
		file.Host = fingerprint(b.storeRoot)
		layers, err := b.phase("", phaseLayers)
		if err != nil {
			return err
		}
		for _, name := range workloadNames {
			wr := newWorkloadResult(name)
			tracedSetup, err := b.traceWorkload(wr, layers.Layer)
			if err != nil {
				return err
			}
			if err := b.measureWorkload(wr, tracedSetup); err != nil {
				return err
			}
			wr.finish()
			file.Workloads = append(file.Workloads, wr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	printResult(w, file)
	if err := b.writeResult(w, file); err != nil {
		return err
	}
	for _, wr := range file.Workloads {
		if !wr.Correct {
			return fmt.Errorf("%s: output checks failed", wr.Workload)
		}
	}
	return nil
}

func (b *bench) newResultFile() *resultFile {
	return &resultFile{Schema: resultSchema, Seed: b.seed, Seconds: b.seconds, Quick: b.quick,
		Started: time.Now().UTC().Format(time.RFC3339Nano)}
}

// writeResult stores the run under a name that sorts by start time.
func (b *bench) writeResult(w io.Writer, file *resultFile) error {
	stamp := strings.NewReplacer(":", "", "-", "", ".", "").Replace(file.Started)
	path := filepath.Join(b.outDir, fmt.Sprintf("result-%s-seed%d.json", stamp, b.seed))
	if err := writeJSONFile(path, file); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nresult file: %s\n", path)
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
