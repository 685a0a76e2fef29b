package core

import (
	"slices"
	"testing"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

func TestDistSessionDroppingByzantine(t *testing.T) {
	// A Byzantine processor that drops half its traffic: honest replicas
	// must stay consistent (its slots resolve via the BAP defaults).
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	byz := map[int]sim.Adversary{2: sim.DropAdversary(9, 0.5)}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 30, byz)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlays(s, 0, 5)
	if err := s.ConsistentResults(4); err != nil {
		t.Fatal(err)
	}
	if len(res) < 4 {
		t.Fatalf("plays = %d", len(res))
	}
}

func TestDistSessionTamperedRevealConvicted(t *testing.T) {
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	behaviors := make([]*Agent, n)
	behaviors[3] = &Agent{
		Choose: func(int, game.Profile) int { return 1 },
		TamperOpening: func(round int, op commit.Opening) commit.Opening {
			op.Value = []byte("botched")
			return op
		},
	}
	byz := map[int]sim.Adversary{3: sim.PassthroughAdversary()}
	s, err := NewDistSession(n, f, g, behaviors, 31, byz)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlays(s, 0, 2)
	if err := s.ConsistentResults(2); err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res[0].Guilty) != 1 || res[0].Guilty[0] != 3 {
		t.Fatalf("results = %+v, want conviction of 3", res)
	}
}

func TestDistSessionRepeatedCorruptionBursts(t *testing.T) {
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for burst := uint64(0); burst < 3; burst++ {
		ent := prng.New(5000 + burst*17)
		s.Net.Corrupt(ent.Uint64)
		res := runPlays(s, s.Honest[0], 40)
		if err := s.ConsistentResults(2); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
		if len(res) < 2 {
			t.Fatalf("burst %d: no plays resumed", burst)
		}
	}
}

func TestDistSessionSevenProcessors(t *testing.T) {
	n, f := 7, 2
	g := &nPlayerPD{n: n}
	byz := map[int]sim.Adversary{
		5: sim.SilentAdversary(),
		6: sim.DropAdversary(3, 0.8),
	}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 33, byz)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlays(s, 0, 3)
	if err := s.ConsistentResults(2); err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("plays = %d", len(res))
	}
	for _, r := range res {
		if err := game.ValidateProfile(g, r.Outcome); err != nil {
			t.Fatalf("outcome %v invalid: %v", r.Outcome, err)
		}
	}
}

// TestDistResultRing pins what a processor keeps of its plays: ResultCount
// counts every play since the last fault, the newest play is kept exactly
// as it completed, ConsistentResults refuses a tail it cannot check in
// full, and a fault resets the count.
func TestDistResultRing(t *testing.T) {
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 34, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Procs[0]
	const plays = printRing + 6
	var log []DistRound // every play, copied as it completes
	for p.ResultCount() < plays {
		s.Net.StepLockstep()
		if c := p.ResultCount(); c > len(log) {
			log = append(log, p.last.clone())
		}
	}
	if got, want := p.last, log[plays-1]; got.Pulse != want.Pulse || !got.Outcome.Equal(want.Outcome) || !slices.Equal(got.Guilty, want.Guilty) {
		t.Fatalf("newest play = %+v, completed as %+v", got, want)
	}
	for k := plays - printRing; k < plays; k++ {
		if got, want := p.prints[k%printRing], (playPrint{log[k].Pulse, fingerprint(log[k].Outcome, log[k].Guilty)}); got != want {
			t.Fatalf("play %d's print = %+v, want %+v", k, got, want)
		}
	}
	if err := s.ConsistentResults(printRing); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsistentResults(printRing + 1); err == nil {
		t.Fatal("ConsistentResults checked fewer plays than asked past the ring")
	}
	s.Net.Corrupt(prng.New(35).Uint64)
	if c := p.ResultCount(); c != 0 {
		t.Fatalf("after a fault: %d plays counted", c)
	}
	if err := s.ConsistentResults(1); err == nil {
		t.Fatal("ConsistentResults(1) passed with no play since the fault")
	}
}

// TestConsistentResultsCatchesDivergence plants a divergence in one
// honest processor's record of one play — its outcome, its foul set or its
// pulse — at each of the printRing positions ConsistentResults compares,
// and in the newest play kept in full, and requires every one reported.
// The fingerprint is pinned too: a fixed mix, the same in every build.
func TestConsistentResultsCatchesDivergence(t *testing.T) {
	if got, want := fingerprint(game.Profile{1, 0, 1, 1}, []int{2}), uint64(0x5a58488e11974562); got != want {
		t.Fatalf("fingerprint = %#x, want the pinned %#x", got, want)
	}
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	behaviors := make([]*Agent, n)
	behaviors[2] = &Agent{Choose: func(int, game.Profile) int { return 7 }} // convicted: foul sets are not all empty
	s, err := NewDistSession(n, f, g, behaviors, 36, map[int]sim.Adversary{2: sim.PassthroughAdversary()})
	if err != nil {
		t.Fatal(err)
	}
	id := s.Honest[1]
	log := runPlays(s, id, printRing+6)
	if err := s.ConsistentResults(printRing); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*DistRound)
	}{
		{"outcome", func(r *DistRound) { r.Outcome[n-1] ^= 1 }},
		{"guilty", func(r *DistRound) { r.Guilty = append(r.Guilty, n-1) }},
		{"pulse", func(r *DistRound) { r.Pulse++ }},
	}
	p := s.Procs[id]
	played := p.ResultCount()
	for pos := 0; pos <= printRing; pos++ {
		newest := pos == printRing // the newest play in full, its print untouched
		k := played - printRing + pos
		if newest {
			k = played - 1
		}
		for _, m := range mutations {
			prints, last := p.prints, p.last.clone()
			r := log[len(log)-played+k].clone()
			m.mutate(&r)
			p.plant(k, r, newest)
			if s.ConsistentResults(printRing) == nil {
				t.Errorf("a diverging %s at position %d (newest in full: %v) went unreported", m.name, pos, newest)
			}
			p.prints, p.last = prints, last
		}
	}
	if err := s.ConsistentResults(printRing); err != nil {
		t.Fatalf("after restoring the plants: %v", err)
	}
}
