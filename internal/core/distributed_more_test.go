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
	s.RunPlays(5)
	if err := s.ConsistentResults(4); err != nil {
		t.Fatal(err)
	}
	if len(s.Procs[0].Results()) < 4 {
		t.Fatalf("plays = %d", len(s.Procs[0].Results()))
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
	s.RunPlays(2)
	if err := s.ConsistentResults(2); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
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
		s.Net.Run(40 * PulsesPerPlay(f))
		if err := s.ConsistentResults(2); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
		if len(s.Procs[s.Honest[0]].Results()) < 2 {
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
	s.RunPlays(3)
	if err := s.ConsistentResults(2); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
	if len(res) < 2 {
		t.Fatalf("plays = %d", len(res))
	}
	for _, r := range res {
		if err := game.ValidateProfile(g, r.Outcome); err != nil {
			t.Fatalf("outcome %v invalid: %v", r.Outcome, err)
		}
	}
}

// TestDistResultRing pins the processor's fixed result ring: ResultCount
// counts every play since the last fault, Results returns the last
// resultRing of them exactly as they completed, ConsistentResults refuses
// a tail it cannot check in full, and a fault empties the ring.
func TestDistResultRing(t *testing.T) {
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 34, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Procs[0]
	const plays = resultRing + 6
	var log []DistRound // every play, copied as it completes
	for p.ResultCount() < plays {
		s.Net.StepLockstep()
		if c := p.ResultCount(); c > len(log) {
			r := p.resultRef(c - 1)
			log = append(log, DistRound{Pulse: r.Pulse, Outcome: r.Outcome.Clone(), Guilty: slices.Clone(r.Guilty)})
		}
	}
	got := p.Results()
	if len(got) != resultRing {
		t.Fatalf("Results holds %d plays after %d, want %d", len(got), plays, resultRing)
	}
	for k, r := range got {
		want := log[plays-resultRing+k]
		if r.Pulse != want.Pulse || !r.Outcome.Equal(want.Outcome) || !slices.Equal(r.Guilty, want.Guilty) {
			t.Fatalf("retained play %d = %+v, completed as %+v", k, r, want)
		}
	}
	if err := s.ConsistentResults(resultRing); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsistentResults(resultRing + 1); err == nil {
		t.Fatal("ConsistentResults checked fewer plays than asked past the ring")
	}
	s.Net.Corrupt(prng.New(35).Uint64)
	if c, r := p.ResultCount(), len(p.Results()); c != 0 || r != 0 {
		t.Fatalf("after a fault: %d plays counted, %d retained", c, r)
	}
	if err := s.ConsistentResults(1); err == nil {
		t.Fatal("ConsistentResults(1) passed with no play since the fault")
	}
}
