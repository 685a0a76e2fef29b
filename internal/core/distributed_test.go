package core

import (
	"testing"

	"gameauthority/internal/bap"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

func TestDistSessionAllHonest(t *testing.T) {
	// Four processors play prisoners' dilemma under the distributed
	// authority. All honest: outcomes must be identical at every honest
	// processor, every play legitimate, nobody convicted.
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunPlays(6)
	if err := s.ConsistentResults(5); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
	if len(res) < 5 {
		t.Fatalf("only %d plays completed", len(res))
	}
	for _, r := range res {
		if err := game.ValidateProfile(g, r.Outcome); err != nil {
			t.Fatalf("outcome %v invalid: %v", r.Outcome, err)
		}
		if len(r.Guilty) != 0 {
			t.Fatalf("honest play convicted %v", r.Guilty)
		}
	}
}

// nPlayerPD is an n-player prisoners-dilemma-like game: action 1 (defect)
// dominates, and the all-defect profile is the unique PNE. Used because the
// distributed driver needs one player per processor.
type nPlayerPD struct{ n int }

var _ game.Game = (*nPlayerPD)(nil)

func (g *nPlayerPD) NumPlayers() int    { return g.n }
func (g *nPlayerPD) NumActions(int) int { return 2 }
func (g *nPlayerPD) Cost(i int, p game.Profile) float64 {
	cooperators := 0
	for _, a := range p {
		if a == 0 {
			cooperators++
		}
	}
	// Cooperating costs 2 extra; every cooperator lowers everyone's base
	// cost by 1.
	base := float64(g.n - cooperators)
	if p[i] == 0 {
		return base + 2
	}
	return base
}

func TestDistSessionConvictsIllegitimateAction(t *testing.T) {
	// Processor 2 plays action 7 (outside Π). All honest processors must
	// agree on the conviction and publish a legitimate outcome.
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	behaviors := make([]*Agent, n)
	behaviors[2] = &Agent{Choose: func(int, game.Profile) int { return 7 }}
	byz := map[int]sim.Adversary{2: sim.PassthroughAdversary()} // behavioural cheat only
	s, err := NewDistSession(n, f, g, behaviors, 22, byz)
	if err != nil {
		t.Fatal(err)
	}
	s.RunPlays(3)
	if err := s.ConsistentResults(3); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
	if len(res) == 0 {
		t.Fatal("no plays completed")
	}
	first := res[0]
	if len(first.Guilty) != 1 || first.Guilty[0] != 2 {
		t.Fatalf("guilty = %v, want [2]", first.Guilty)
	}
	if err := game.ValidateProfile(g, first.Outcome); err != nil {
		t.Fatalf("published outcome invalid: %v", err)
	}
	// The conviction excluded processor 2 on every honest replica.
	for _, id := range s.Honest {
		if !s.Procs[id].Excluded(2) {
			t.Fatalf("proc %d's executive replica did not exclude 2", id)
		}
	}
}

func TestDistSessionWithholdingConvicted(t *testing.T) {
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	behaviors := make([]*Agent, n)
	behaviors[1] = &Agent{
		Choose:   func(int, game.Profile) int { return 1 },
		Withhold: func(int) bool { return true },
	}
	byz := map[int]sim.Adversary{1: sim.PassthroughAdversary()}
	s, err := NewDistSession(n, f, g, behaviors, 23, byz)
	if err != nil {
		t.Fatal(err)
	}
	s.RunPlays(2)
	if err := s.ConsistentResults(2); err != nil {
		t.Fatal(err)
	}
	res := s.Procs[0].Results()
	if len(res) == 0 || len(res[0].Guilty) != 1 || res[0].Guilty[0] != 1 {
		t.Fatalf("results = %+v, want conviction of 1", res)
	}
}

func TestDistSessionEquivocatingNetworkAdversary(t *testing.T) {
	// Processor 3 equivocates at the network level (different clock values
	// and inner payload dropped per destination). Honest processors must
	// still produce identical play records.
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	evil := prng.New(5)
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		msg, ok := payload.(*distMsg)
		if !ok {
			return payload
		}
		forged := *msg // copy: the original is slab-backed sender state
		forged.Tick = int(evil.Uint64() % 18)
		if to%2 == 0 {
			forged.HasInner = false
			forged.Inner = nil
		}
		return &forged
	})}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 24, byz)
	if err != nil {
		t.Fatal(err)
	}
	s.RunPlays(6)
	if err := s.ConsistentResults(4); err != nil {
		t.Fatal(err)
	}
	if len(s.Procs[0].Results()) < 3 {
		t.Fatalf("too few plays under equivocation: %d", len(s.Procs[0].Results()))
	}
}

func TestDistSessionSelfStabilizes(t *testing.T) {
	// Corrupt every processor's full state mid-run; the clock re-converges
	// and plays resume with consistent results (self(ish)-stabilization).
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	s, err := NewDistSession(n, f, g, make([]*Agent, n), 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunPlays(3)
	ent := prng.New(77)
	s.Net.Corrupt(ent.Uint64)
	// Allow generous pulses for clock reconvergence plus several plays.
	s.Net.Run(40 * PulsesPerPlay(f))
	if err := s.ConsistentResults(3); err != nil {
		t.Fatalf("post-corruption divergence: %v", err)
	}
	minPlays := len(s.Procs[s.Honest[0]].Results())
	if minPlays < 2 {
		t.Fatalf("system did not resume playing after corruption: %d plays", minPlays)
	}
	for _, r := range tail(s.Procs[s.Honest[0]].Results(), 2) {
		if err := game.ValidateProfile(g, r.Outcome); err != nil {
			t.Fatalf("post-recovery outcome invalid: %v", err)
		}
	}
}

func TestDistModulusAndPulses(t *testing.T) {
	if DistModulus(1) <= 4 {
		t.Fatal("modulus too small")
	}
	if PulsesPerPlay(1) != DistModulus(1) {
		t.Fatal("pulses per play must equal the clock modulus")
	}
}

func TestNewDistProcessorValidation(t *testing.T) {
	g := &nPlayerPD{n: 4}
	if _, err := NewDistProcessor(0, 4, 1, nil, HonestPure(g, 0), nil, 1); err == nil {
		t.Fatal("nil game accepted")
	}
	if _, err := NewDistProcessor(0, 4, 1, g, &Agent{}, nil, 1); err == nil {
		t.Fatal("behaviour without Choose accepted")
	}
	if _, err := NewDistProcessor(0, 5, 1, g, HonestPure(g, 0), nil, 1); err == nil {
		t.Fatal("player-count mismatch accepted")
	}
}

// tail returns the last k of rs (all of them when there are fewer).
func tail(rs []DistRound, k int) []DistRound {
	if len(rs) > k {
		return rs[len(rs)-k:]
	}
	return rs
}

func TestMajorityValueDeterminism(t *testing.T) {
	v := majorityValue([]bap.Value{bap.Value("b"), bap.Value("a"), bap.Value("b"), bap.Value("a")})
	if string(v) != "a" {
		t.Fatalf("tie should break lexicographically: got %q", v)
	}
	// Byte order is string order: a prefix sorts first, and the empty
	// value (a withheld or silent slot) before everything.
	if v := majorityValue([]bap.Value{bap.Value("ab"), bap.Value("a"), nil, bap.Value("ab"), bap.Value("a"), nil}); len(v) != 0 {
		t.Fatalf("tie with the empty value: got %q", v)
	}
	if got, count := majorityWithCount([]bap.Value{bap.Value("x"), bap.Value("x"), bap.Value("y")}); string(got) != "x" || count != 2 {
		t.Fatalf("majorityWithCount = %q,%d", got, count)
	}
}
