package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gameauthd: re-executed with
// GAMEAUTHD_MAIN set, it runs main on its arguments (TestExitCodes).
func TestMain(m *testing.M) {
	if os.Getenv("GAMEAUTHD_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestExitCodes pins the command line's refusals: each row exits 2 with
// the named complaint on stderr.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		// Retired with the routed play mode (PR 24): /ws always had its
		// GOMAXPROCS loop pool, and nothing else runs on one.
		{"retired -shards", []string{"-serve", "127.0.0.1:0", "-shards", "-1"}, "flag provided but not defined: -shards"},
		{"serve flag in trace mode", []string{"-ws=false"}, "only apply to serve mode"},
		{"trace flag in serve mode", []string{"-serve", "127.0.0.1:0", "-plays", "3"}, "only apply to trace mode"},
		{"invalid trace shape", []string{"-plays", "0"}, "plays"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "GAMEAUTHD_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("gameauthd %v: %v, want exit 2 (stderr: %s)", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("gameauthd %v: stderr %q, want it to name %q", tc.args, stderr.String(), tc.stderr)
			}
		})
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name               string
		n, f, plays, cheat int
		wantErr            bool
	}{
		{"defaults", 4, 1, 8, -1, false},
		{"cheater in range", 4, 1, 8, 2, false},
		{"n too small for f", 4, 2, 8, -1, true},
		{"zero plays", 4, 1, 0, -1, true},
		{"negative plays", 4, 1, -3, -1, true},
		{"cheat out of range high", 4, 1, 8, 4, true},
		{"cheat out of range low", 4, 1, 8, -2, true},
		{"f zero", 2, 0, 1, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.n, tc.f, tc.plays, tc.cheat)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateFlags(%d,%d,%d,%d) = %v, wantErr=%v",
					tc.n, tc.f, tc.plays, tc.cheat, err, tc.wantErr)
			}
		})
	}
}

// TestTraceCompletes runs a tiny trace end to end, including the
// budget-exhaustion error path.
func TestTraceCompletes(t *testing.T) {
	if err := trace(4, 1, 2, -1, -1, 7); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := trace(4, 1, 2, 2, -1, 7); err != nil {
		t.Fatalf("trace with cheater: %v", err)
	}
}

// TestProfileHelpers exercises the -cpuprofile/-memprofile plumbing: both
// must produce non-empty pprof files around a trace run, and bad paths
// must error instead of silently dropping the profile.
func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.prof"
	mem := dir + "/mem.prof"
	stop, err := startCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace(4, 1, 1, -1, -1, 7); err != nil {
		t.Fatalf("trace under profile: %v", err)
	}
	stop()
	if err := writeMemProfile(mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	if _, err := startCPUProfile(dir + "/no/such/dir/cpu.prof"); err == nil {
		t.Fatal("bad cpuprofile path accepted")
	}
	if err := writeMemProfile(dir + "/no/such/dir/mem.prof"); err == nil {
		t.Fatal("bad memprofile path accepted")
	}
	// Disabled profiles are no-ops.
	stop, err = startCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := writeMemProfile(""); err != nil {
		t.Fatal(err)
	}
}
