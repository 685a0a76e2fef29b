package audit

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

func TestReasonStringsAndSeverity(t *testing.T) {
	reasons := []Reason{
		ReasonIllegitimateAction, ReasonCommitMismatch, ReasonMissingReveal,
		ReasonNotBestResponse, ReasonSeedMismatch, ReasonSuspiciousDistribution,
	}
	for _, r := range reasons {
		if r.String() == "" {
			t.Fatalf("reason %d has empty name", r)
		}
		if s := r.Severity(); s <= 0 || s > 1 {
			t.Fatalf("reason %v severity %v outside (0,1]", r, s)
		}
	}
	if Reason(0).Severity() != 0 {
		t.Fatal("unknown reason should have zero severity")
	}
}

func TestActionEncodeDecode(t *testing.T) {
	for _, a := range []int{0, 1, 7, 123} {
		got, err := DecodeAction(EncodeAction(a))
		if err != nil || got != a {
			t.Fatalf("round trip %d: got %d, %v", a, got, err)
		}
	}
	if _, err := DecodeAction([]byte("xyz")); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("garbage decode: %v", err)
	}
}

// buildEvidence commits the given actions honestly and returns evidence.
func buildEvidence(t *testing.T, g game.Game, round int, prev game.Profile, actions []int, seed uint64) PlayEvidence {
	t.Helper()
	n := g.NumPlayers()
	src := prng.New(seed)
	ev := PlayEvidence{
		Round:       round,
		PrevOutcome: prev,
		Commitments: make([]commit.Digest, n),
		Openings:    make([]commit.Opening, n),
		Revealed:    make([]bool, n),
	}
	for i, a := range actions {
		d, op := commit.Commit(src, EncodeAction(a))
		ev.Commitments[i] = d
		ev.Openings[i] = op
		ev.Revealed[i] = true
	}
	return ev
}

func TestPerRoundCleanPlay(t *testing.T) {
	g := game.MatchingPennies()
	// Previous outcome (Heads, Heads): A's BR is Heads(0), B's BR is
	// Tails(1).
	ev := buildEvidence(t, g, 1, game.Profile{0, 0}, []int{0, 1}, 1)
	verdict, actions, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 0 {
		t.Fatalf("clean play produced fouls: %+v", verdict.Fouls)
	}
	if !actions.Equal(game.Profile{0, 1}) {
		t.Fatalf("decoded actions = %v", actions)
	}
}

func TestPerRoundFirstPlaySkipsBestResponse(t *testing.T) {
	g := game.MatchingPennies()
	// No previous outcome: any legitimate action passes.
	ev := buildEvidence(t, g, 0, nil, []int{1, 0}, 2)
	verdict, _, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 0 {
		t.Fatalf("first play fouls: %+v", verdict.Fouls)
	}
}

func TestPerRoundDetectsNotBestResponse(t *testing.T) {
	g := game.MatchingPennies()
	// Against prev (Heads, Heads), B playing Heads(0) is a foul.
	ev := buildEvidence(t, g, 2, game.Profile{0, 0}, []int{0, 0}, 3)
	verdict, _, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Agent != 1 ||
		verdict.Fouls[0].Reason != ReasonNotBestResponse {
		t.Fatalf("verdict = %+v, want B not-best-response", verdict.Fouls)
	}
}

func TestPerRoundDetectsIllegitimateAction(t *testing.T) {
	// The Fig. 1 scenario as the authority sees it: the elected game is
	// plain matching pennies (2 actions for B); B plays action 2
	// ("Manipulate"), which is simply outside Π_B.
	g := game.MatchingPennies()
	ev := buildEvidence(t, g, 1, nil, []int{0, game.ManipulateAction}, 4)
	verdict, actions, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Agent != 1 ||
		verdict.Fouls[0].Reason != ReasonIllegitimateAction {
		t.Fatalf("verdict = %+v, want illegitimate-action by B", verdict.Fouls)
	}
	if actions[1] != -1 {
		t.Fatalf("illegitimate action leaked into profile: %v", actions)
	}
}

func TestPerRoundDetectsCommitMismatch(t *testing.T) {
	g := game.MatchingPennies()
	ev := buildEvidence(t, g, 1, nil, []int{0, 1}, 5)
	// B alters its reveal after committing.
	ev.Openings[1].Value = EncodeAction(0)
	verdict, _, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Reason != ReasonCommitMismatch {
		t.Fatalf("verdict = %+v, want commit-mismatch", verdict.Fouls)
	}
}

func TestPerRoundDetectsMissingReveal(t *testing.T) {
	g := game.MatchingPennies()
	ev := buildEvidence(t, g, 1, nil, []int{0, 1}, 6)
	ev.Revealed[0] = false
	verdict, _, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Agent != 0 ||
		verdict.Fouls[0].Reason != ReasonMissingReveal {
		t.Fatalf("verdict = %+v, want missing-reveal by A", verdict.Fouls)
	}
}

func TestPerRoundUndecodableAction(t *testing.T) {
	g := game.MatchingPennies()
	src := prng.New(7)
	n := g.NumPlayers()
	ev := PlayEvidence{
		Commitments: make([]commit.Digest, n),
		Openings:    make([]commit.Opening, n),
		Revealed:    []bool{true, true},
	}
	d0, op0 := commit.Commit(src, EncodeAction(0))
	dBad, opBad := commit.Commit(src, []byte("not-a-number"))
	ev.Commitments[0], ev.Openings[0] = d0, op0
	ev.Commitments[1], ev.Openings[1] = dBad, opBad
	verdict, _, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Reason != ReasonCommitMismatch {
		t.Fatalf("verdict = %+v", verdict.Fouls)
	}
}

func TestPerRoundEvidenceShapeErrors(t *testing.T) {
	g := game.MatchingPennies()
	if _, _, err := PerRound(g, PlayEvidence{}); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("empty evidence: %v", err)
	}
	ev := buildEvidence(t, g, 1, game.Profile{0, 0, 0}, []int{0, 1}, 8)
	if _, _, err := PerRound(g, ev); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("bad prev outcome: %v", err)
	}
}

func TestVerdictGuiltySortedUnique(t *testing.T) {
	v := Verdict{Fouls: []Foul{{Agent: 3}, {Agent: 1}, {Agent: 3}, {Agent: 0}}}
	g := v.Guilty()
	want := []int{0, 1, 3}
	if len(g) != len(want) {
		t.Fatalf("guilty = %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("guilty = %v, want %v", g, want)
		}
	}
}

// TestVerdictAppendGuilty pins the scratch form: it appends after what
// dst holds, sorted and distinct among the appended ids only, and a warm
// buffer takes a play's foul set without allocating.
func TestVerdictAppendGuilty(t *testing.T) {
	v := Verdict{Fouls: []Foul{{Agent: 3}, {Agent: 1}, {Agent: 3}, {Agent: 0}}}
	if got := v.AppendGuilty([]int{9, 1}); !slices.Equal(got, []int{9, 1, 0, 1, 3}) {
		t.Fatalf("AppendGuilty after [9 1] = %v", got)
	}
	buf := make([]int, 0, 4)
	if a := testing.AllocsPerRun(100, func() {
		buf = v.AppendGuilty(buf[:0])
	}); a != 0 || !slices.Equal(buf, []int{0, 1, 3}) {
		t.Fatalf("AppendGuilty into a warm buffer: %v, %v allocs", buf, a)
	}
}

// --- Mixed-strategy audits ---------------------------------------------------

func TestSeedEncodeDecode(t *testing.T) {
	for _, s := range []uint64{0, 1, 1 << 63, 0xdeadbeef} {
		got, err := DecodeSeed(EncodeSeed(s))
		if err != nil || got != s {
			t.Fatalf("seed round trip %d: %d, %v", s, got, err)
		}
	}
	if _, err := DecodeSeed([]byte("zz!")); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("garbage seed: %v", err)
	}
}

func buildMixedEvidence(t *testing.T, g game.Game, round int, seeds []uint64, honest []bool, seedCommit uint64) MixedEvidence {
	t.Helper()
	n := g.NumPlayers()
	src := prng.New(seedCommit)
	ev := MixedEvidence{
		Round:           round,
		Strategies:      make([]game.Mixed, n),
		SeedCommitments: make([]commit.Digest, n),
		SeedOpenings:    make([]commit.Opening, n),
		Revealed:        make([]bool, n),
		Actions:         make(game.Profile, n),
	}
	for i := 0; i < n; i++ {
		ev.Strategies[i] = game.Uniform(g.NumActions(i))
		d, op := commit.Commit(src, EncodeSeed(seeds[i]))
		ev.SeedCommitments[i] = d
		ev.SeedOpenings[i] = op
		ev.Revealed[i] = true
		want, err := ExpectedAction(ev.Strategies[i], seeds[i], i, round)
		if err != nil {
			t.Fatal(err)
		}
		if honest[i] {
			ev.Actions[i] = want
		} else {
			// Play something other than the PRG draw.
			ev.Actions[i] = (want + 1) % g.NumActions(i)
		}
	}
	return ev
}

func TestMixedPerRoundHonest(t *testing.T) {
	g := game.MatchingPennies()
	ev := buildMixedEvidence(t, g, 3, []uint64{11, 22}, []bool{true, true}, 9)
	verdict, err := MixedPerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 0 {
		t.Fatalf("honest mixed play fouled: %+v", verdict.Fouls)
	}
}

func TestMixedPerRoundDetectsOffStreamAction(t *testing.T) {
	// §5.1's hidden manipulation in mixed form: B ignores its committed
	// stream and plays what it likes. Seed audit catches it exactly.
	g := game.MatchingPennies()
	ev := buildMixedEvidence(t, g, 3, []uint64{11, 22}, []bool{true, false}, 10)
	verdict, err := MixedPerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Agent != 1 ||
		verdict.Fouls[0].Reason != ReasonSeedMismatch {
		t.Fatalf("verdict = %+v, want seed-mismatch by B", verdict.Fouls)
	}
}

func TestMixedPerRoundSeedCommitMismatch(t *testing.T) {
	g := game.MatchingPennies()
	ev := buildMixedEvidence(t, g, 1, []uint64{1, 2}, []bool{true, true}, 11)
	ev.SeedOpenings[0].Value = EncodeSeed(999) // lie about the seed
	verdict, err := MixedPerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Reason != ReasonCommitMismatch {
		t.Fatalf("verdict = %+v", verdict.Fouls)
	}
}

func TestMixedPerRoundArityError(t *testing.T) {
	if _, err := MixedPerRound(game.MatchingPennies(), MixedEvidence{}); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("empty evidence: %v", err)
	}
}

// --- Batched audits ------------------------------------------------------------

func TestBatchedEpochHonest(t *testing.T) {
	g := game.MatchingPennies()
	n := g.NumPlayers()
	const rounds = 8
	seeds := []uint64{5, 6}
	src := prng.New(12)
	ev := EpochEvidence{
		StartRound:      10,
		Strategies:      make([][]game.Mixed, rounds),
		History:         make([]game.Profile, rounds),
		SeedCommitments: make([]commit.Digest, n),
		SeedOpenings:    make([]commit.Opening, n),
		Revealed:        make([]bool, n),
	}
	for i := 0; i < n; i++ {
		d, op := commit.Commit(src, EncodeSeed(seeds[i]))
		ev.SeedCommitments[i], ev.SeedOpenings[i], ev.Revealed[i] = d, op, true
	}
	for r := 0; r < rounds; r++ {
		ev.Strategies[r] = []game.Mixed{game.Uniform(2), game.Uniform(2)}
		ev.History[r] = make(game.Profile, n)
		for i := 0; i < n; i++ {
			a, err := ExpectedAction(ev.Strategies[r][i], seeds[i], i, 10+r)
			if err != nil {
				t.Fatal(err)
			}
			ev.History[r][i] = a
		}
	}
	verdict, err := Batched(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 0 {
		t.Fatalf("honest epoch fouled: %+v", verdict.Fouls)
	}
	// Now corrupt one mid-epoch action; exactly one foul must appear.
	ev.History[4][1] = (ev.History[4][1] + 1) % 2
	verdict, err = Batched(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Fouls) != 1 || verdict.Fouls[0].Agent != 1 ||
		verdict.Fouls[0].Reason != ReasonSeedMismatch {
		t.Fatalf("tampered epoch verdict = %+v", verdict.Fouls)
	}
}

func TestBatchedMissingSeedReveal(t *testing.T) {
	g := game.MatchingPennies()
	ev := EpochEvidence{
		Strategies:      [][]game.Mixed{},
		History:         []game.Profile{},
		SeedCommitments: make([]commit.Digest, 2),
		SeedOpenings:    make([]commit.Opening, 2),
		Revealed:        []bool{true, false},
	}
	src := prng.New(13)
	d, op := commit.Commit(src, EncodeSeed(1))
	ev.SeedCommitments[0], ev.SeedOpenings[0] = d, op
	verdict, err := Batched(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	foundMismatch := false
	for _, f := range verdict.Fouls {
		if f.Agent == 1 && f.Reason == ReasonMissingReveal {
			foundMismatch = true
		}
		if f.Agent == 0 && f.Reason != ReasonCommitMismatch {
			// agent 0's empty-digest commitment will mismatch; fine
			_ = f
		}
	}
	if !foundMismatch {
		t.Fatalf("verdict = %+v, want missing-reveal for agent 1", verdict.Fouls)
	}
}

// --- Frequency screening ---------------------------------------------------------

func TestFrequencyCheckHonestSample(t *testing.T) {
	strategy := game.Mixed{0.5, 0.5}
	src := prng.New(14)
	sampler, err := strategy.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	actions := make([]int, 2000)
	for i := range actions {
		actions[i] = sampler.Sample(src)
	}
	stat, suspicious, err := FrequencyCheck(strategy, actions, 6.63) // χ²(1) at 1%
	if err != nil {
		t.Fatal(err)
	}
	if suspicious {
		t.Fatalf("honest sample flagged: statistic %v", stat)
	}
}

func TestFrequencyCheckDetectsBias(t *testing.T) {
	strategy := game.Mixed{0.5, 0.5}
	actions := make([]int, 2000)
	for i := range actions {
		if i%10 == 0 {
			actions[i] = 0
		} else {
			actions[i] = 1 // 90% tails against a declared 50/50
		}
	}
	stat, suspicious, err := FrequencyCheck(strategy, actions, 6.63)
	if err != nil {
		t.Fatal(err)
	}
	if !suspicious {
		t.Fatalf("biased sample not flagged: statistic %v", stat)
	}
}

func TestFrequencyCheckZeroProbabilityAction(t *testing.T) {
	strategy := game.Mixed{1, 0}
	_, suspicious, err := FrequencyCheck(strategy, []int{0, 0, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !suspicious {
		t.Fatal("zero-probability action not flagged")
	}
}

func TestFrequencyCheckErrors(t *testing.T) {
	if _, _, err := FrequencyCheck(game.Mixed{}, nil, 1); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("empty strategy: %v", err)
	}
	if _, _, err := FrequencyCheck(game.Mixed{1}, []int{3}, 1); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("out of range action: %v", err)
	}
	if stat, susp, err := FrequencyCheck(game.Mixed{1}, nil, 1); err != nil || stat != 0 || susp {
		t.Fatalf("empty sample: %v %v %v", stat, susp, err)
	}
}

func TestQuickExpectedActionDeterministic(t *testing.T) {
	f := func(seed uint64, agentRaw, roundRaw uint8) bool {
		strategy := game.Mixed{0.25, 0.25, 0.5}
		agent := int(agentRaw % 8)
		round := int(roundRaw)
		a1, err1 := ExpectedAction(strategy, seed, agent, round)
		a2, err2 := ExpectedAction(strategy, seed, agent, round)
		return err1 == nil && err2 == nil && a1 == a2 && a1 >= 0 && a1 < 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendCodecsRoundTrip(t *testing.T) {
	buf := make([]byte, 0, 32)
	for _, a := range []int{0, 1, 7, 99, -1, 123456} {
		buf = AppendAction(buf[:0], a)
		if string(buf) != string(EncodeAction(a)) {
			t.Fatalf("AppendAction(%d) = %q, EncodeAction = %q", a, buf, EncodeAction(a))
		}
		got, err := DecodeAction(buf)
		if err != nil || got != a {
			t.Fatalf("DecodeAction(%q) = %d, %v", buf, got, err)
		}
	}
	for _, s := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		buf = AppendSeed(buf[:0], s)
		if string(buf) != string(EncodeSeed(s)) {
			t.Fatalf("AppendSeed(%d) = %q, EncodeSeed = %q", s, buf, EncodeSeed(s))
		}
		got, err := DecodeSeed(buf)
		if err != nil || got != s {
			t.Fatalf("DecodeSeed(%q) = %d, %v", buf, got, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte(""), []byte("x"), []byte("1x2"), []byte("-"), []byte("999999999999999999999999")} {
		if _, err := DecodeAction(bad); err == nil {
			t.Fatalf("DecodeAction(%q) accepted garbage", bad)
		}
	}
	for _, bad := range [][]byte{nil, []byte(""), []byte("xyz"), []byte("12345678901234567")} {
		if _, err := DecodeSeed(bad); err == nil {
			t.Fatalf("DecodeSeed(%q) accepted garbage", bad)
		}
	}
}

func TestPerRoundIntoMatchesPerRound(t *testing.T) {
	g := game.PrisonersDilemma()
	src := prng.New(3)
	ev := PlayEvidence{
		Round:       1,
		PrevOutcome: game.Profile{1, 1},
		Commitments: make([]commit.Digest, 2),
		Openings:    make([]commit.Opening, 2),
		Revealed:    []bool{true, false}, // agent 1 withholds
	}
	ev.Commitments[0], ev.Openings[0] = commit.Commit(src, EncodeAction(1))
	wantVerdict, wantActions, err := PerRound(g, ev)
	if err != nil {
		t.Fatal(err)
	}
	actions := make(game.Profile, 2)
	var verdict Verdict
	verdict.Fouls = verdict.Fouls[:0]
	if err := PerRoundInto(g, ev, actions, &verdict); err != nil {
		t.Fatal(err)
	}
	if !actions.Equal(wantActions) {
		t.Fatalf("actions %v, want %v", actions, wantActions)
	}
	if len(verdict.Fouls) != len(wantVerdict.Fouls) {
		t.Fatalf("fouls %v, want %v", verdict.Fouls, wantVerdict.Fouls)
	}
	if err := PerRoundInto(g, ev, make(game.Profile, 3), &verdict); err == nil {
		t.Fatal("wrong-arity action buffer accepted")
	}
}

func TestGuiltyEmptyDoesNotAllocate(t *testing.T) {
	var v Verdict
	if a := testing.AllocsPerRun(100, func() {
		if v.Guilty() != nil {
			t.Fatal("empty verdict produced guilty agents")
		}
	}); a != 0 {
		t.Fatalf("Guilty() on empty verdict allocated %v times", a)
	}
}
