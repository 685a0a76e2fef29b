package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint stored in every result file: a number is
// only comparable with one taken on the same kind of host.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	StoreFS    string `json:"store_fs"`
	GitCommit  string `json:"git_commit"`
}

func fingerprint(storeDir string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StoreFS:    fsType(storeDir),
		GitCommit:  gitCommit(),
	}
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (the benchmark driver runs from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() cpuTimes {
	var t cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so only the first eight add up.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of all CPU time between two readings that the
// hypervisor gave to someone else.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// chooseStoreRoot picks where the durable workloads put their File store.
// The store fsyncs on every session create and calls syncfs(2) on every
// group-commit epoch, so on a shared disk the numbers measure the
// neighbours' dirty pages; /dev/shm, when it is a writable tmpfs, takes
// the disk out of the measurement. Otherwise the store goes under
// fallback, inside the benchmark's own output directory.
func chooseStoreRoot(fallback string) (string, error) {
	const shm = "/dev/shm"
	if fsType(shm) == "tmpfs" {
		if dir, err := os.MkdirTemp(shm, "gameauthority-bench-"); err == nil {
			return dir, nil
		}
	}
	if err := os.MkdirAll(fallback, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(fallback, "store-")
}

// dirSize sums the sizes of the files matching pattern in dir.
func dirSize(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var total int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			total += fi.Size()
		}
	}
	return total
}
