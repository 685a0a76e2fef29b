package core

import (
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
)

func TestHistoryRingUnbounded(t *testing.T) {
	var r historyRing
	for i := 0; i < 5; i++ {
		r.record(&RoundResult{Round: i, Outcome: game.Profile{i}})
	}
	if r.recorded() != 5 || r.retained() != 5 || r.firstRetained() != 0 {
		t.Fatalf("recorded=%d retained=%d first=%d", r.recorded(), r.retained(), r.firstRetained())
	}
	for i := 0; i < 5; i++ {
		s, ok := r.at(i)
		if !ok || s.Round != i || s.Outcome[0] != i {
			t.Fatalf("at(%d) = %+v, %v", i, s, ok)
		}
	}
}

func TestHistoryRingWraparoundOrdering(t *testing.T) {
	r := historyRing{limit: 3}
	for i := 0; i < 10; i++ {
		r.record(&RoundResult{Round: i, Outcome: game.Profile{i}, Costs: []float64{float64(i)}})
	}
	if r.recorded() != 10 || r.retained() != 3 || r.firstRetained() != 7 {
		t.Fatalf("recorded=%d retained=%d first=%d", r.recorded(), r.retained(), r.firstRetained())
	}
	// Evicted rounds are gone.
	for _, round := range []int{0, 6, 10, -1} {
		if _, ok := r.at(round); ok {
			t.Fatalf("at(%d) should be evicted/out of range", round)
		}
	}
	// Retained rounds come back in order with the right contents.
	snap := r.snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for i, want := range []int{7, 8, 9} {
		s, ok := r.at(want)
		if !ok || s.Round != want || s.Outcome[0] != want {
			t.Fatalf("at(%d) = %+v, %v", want, s, ok)
		}
		if snap[i].Round != want || snap[i].Costs[0] != float64(want) {
			t.Fatalf("snapshot[%d] = %+v, want round %d", i, snap[i], want)
		}
	}
}

// TestHistoryRingSlotReuseDoesNotAllocate pins what a limit-8 ring of
// 4-wide rows allocates: filling it, the outcome and cost rows each double
// from one row to eight (four arrays apiece), and after that a record
// allocates nothing, whether the play is honest or carries fouls,
// convictions and exclusions in the side array.
func TestHistoryRingSlotReuseDoesNotAllocate(t *testing.T) {
	const limit, fillAllocs = 8, 8
	honest := RoundResult{Outcome: game.Profile{1, 0, 2, 1}, Costs: []float64{1, 2, 3, 4}}
	deviant := honest
	deviant.Verdict.Fouls = []audit.Foul{{Agent: 2, Reason: audit.ReasonCommitMismatch}}
	deviant.Convicted, deviant.Excluded = []int{2}, []int{1, 2}
	var r historyRing
	fill := testing.AllocsPerRun(10, func() {
		r = historyRing{limit: limit}
		for i := 0; i < limit; i++ {
			r.record(&honest)
		}
	})
	if fill != fillAllocs {
		t.Fatalf("filling a limit-%d ring allocated %v times, want %d", limit, fill, fillAllocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.record(&honest) }); allocs != 0 {
		t.Fatalf("a full ring allocated %v times per honest record", allocs)
	}
	for i := 0; i < limit; i++ { // the side array and every slot's slices
		r.record(&deviant)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.record(&deviant)
		r.record(&honest)
	})
	if allocs != 0 {
		t.Fatalf("a full ring with a side array allocated %v times per two records", allocs)
	}
}

func TestHistoryRingSnapshotIsIndependent(t *testing.T) {
	r := historyRing{limit: 2}
	r.record(&RoundResult{Round: 0, Outcome: game.Profile{7, 7}})
	snap := r.snapshot()
	view0, _ := r.at(0)
	_ = view0
	// Overwrite the slot by wrapping around.
	r.record(&RoundResult{Round: 1, Outcome: game.Profile{1, 1}})
	r.record(&RoundResult{Round: 2, Outcome: game.Profile{2, 2}})
	if snap[0].Outcome[0] != 7 {
		t.Fatalf("snapshot mutated by wraparound: %v", snap[0].Outcome)
	}
}

func TestRoundResultCloneIndependent(t *testing.T) {
	orig := RoundResult{Round: 3, Outcome: game.Profile{1, 2}, Costs: []float64{4, 5}, Convicted: []int{1}}
	c := orig.Clone()
	orig.Outcome[0] = 99
	orig.Costs[0] = 99
	orig.Convicted[0] = 99
	if c.Outcome[0] != 1 || c.Costs[0] != 4 || c.Convicted[0] != 1 {
		t.Fatalf("clone shares memory: %+v", c)
	}
}
