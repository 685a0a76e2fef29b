package core

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"sync"
	"testing"
)

// lentTwiceEnv marks the child runs of TestWorkspaceLentTwiceRaces: "1"
// plants the fault, "0" is the control that does not.
const lentTwiceEnv = "CORE_TEST_LEND_TWICE"

// TestWorkspaceLentTwiceRaces shows that the race detector sees a
// workspace lent to two plays at once, so a -race run of the lending
// hammers (TestLentWorkspaceHammer in the root package) would report such
// a fault rather than pass over it. A race report fails the test that
// raised it, so the plays run in a child run of this test binary, which
// halts at its first report: with one workspace put on the free list
// twice, two sessions of one shape played from two goroutines must die
// reporting a race in the play path, and without the plant they must not.
func TestWorkspaceLentTwiceRaces(t *testing.T) {
	if plant := os.Getenv(lentTwiceEnv); plant != "" {
		playLentTwice(t, plant == "1")
		return
	}
	if !raceEnabled {
		t.Skip("needs the race detector (go test -race)")
	}
	child := func(plant string) ([]byte, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWorkspaceLentTwiceRaces$", "-test.count=1", "-test.cpu=2")
		cmd.Env = append(os.Environ(), lentTwiceEnv+"="+plant, "GORACE=halt_on_error=1")
		return cmd.CombinedOutput()
	}
	if out, err := child("0"); err != nil {
		t.Fatalf("the control run failed: %v\n%s", err, out)
	}
	out, err := child("1")
	if err == nil || !bytes.Contains(out, []byte("WARNING: DATA RACE")) || !bytes.Contains(out, []byte("core.(*driver).playLocked")) {
		t.Fatalf("a workspace lent to two plays at once went unreported (err %v):\n%s", err, out)
	}
}

// playLentTwice is the child's body: two pure sessions of one shape play
// long batches at once, with, if plant is set, one workspace on the free
// list twice.
func playLentTwice(t *testing.T, plant bool) {
	const players = 5 // no other session in the child has this shape
	if plant {
		w := takeWorkspace(KindPure, players)
		w.release()
		w.release()
	}
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 2; seed++ {
		s, err := NewSession(SessionConfig{Game: &nPlayerPD{n: players}, Seed: seed, HistoryLimit: 8})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.PlayN(context.Background(), 500, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
