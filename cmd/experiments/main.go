// Command experiments regenerates every table and figure of the paper's
// evaluation (DESIGN.md §2 is the experiment index). It exits 1 when a
// table contradicts the claim it reproduces: a Theorem 1 or Lemma 3
// violation, a Lemma 2 reconvergence that times out, a Theorem 5 bound
// exceeded, or honest replicas that disagree.
//
// Usage:
//
//	go run ./cmd/experiments              # run everything
//	go run ./cmd/experiments -e E-T5      # one experiment
//	go run ./cmd/experiments -quick       # reduced sweeps (CI-sized)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	ga "gameauthority"
	"gameauthority/internal/bap"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
	"gameauthority/internal/stats"
)

func main() {
	var (
		only  = flag.String("e", "", "run only this experiment id (e.g. E-T5)")
		quick = flag.Bool("quick", false, "reduced sweeps")
	)
	flag.Parse()
	os.Exit(run(*only, *quick))
}

// experiments is the index of DESIGN.md §2. Each run prints its table and
// returns an error when the table contradicts the claim it reproduces.
var experiments = []struct {
	id   string
	name string
	run  func(quick bool) error
}{
	{"E-F1", "Fig. 1 — hidden manipulation in matching pennies", runEF1},
	{"E-T1", "Theorem 1 — self-stabilizing Byzantine agreement", runET1},
	{"E-L2", "Lemma 2 — convergence pulses from arbitrary states", runEL2},
	{"E-L3", "Lemma 3 — closure over long executions", runEL3},
	{"E-T5", "Theorem 5 — multi-round anarchy cost of supervised RRA", runET5},
	{"E-PoM", "Price of malice — virus inoculation with/without authority", runEPoM},
	{"E-AUD", "§5.3 ablation — per-round vs batched auditing", runEAUD},
	{"E-PUN", "§3.4 ablation — punishment schemes", runEPUN},
	{"E-VOTE", "§3.1 ablation — naive vs robust legislative voting", runEVOTE},
	{"E-BAP", "Substrate — interactive consistency per play, by admitted shape", runEBAP},
	{"E-EXT", "Extensions — sampled/statistical auditing and re-election", runEEXT},
}

// run runs every experiment, or only the one named, and returns the exit
// status: 0 when every claim held, 1 when one failed, 2 for an unknown id.
func run(only string, quick bool) int {
	ran, failed := 0, 0
	for _, e := range experiments {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.name)
		if err := e.run(quick); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			failed++
		}
		fmt.Println()
		ran++
	}
	switch {
	case ran == 0:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", only)
		return 2
	case failed > 0:
		return 1
	}
	return 0
}

func runEF1(quick bool) error {
	rounds := 20000
	if quick {
		rounds = 2000
	}
	g := ga.MatchingPenniesManipulated()
	fmt.Println("payoff matrix (paper Fig. 1):")
	fmt.Println("  A\\B        Heads     Tails  Manipulate")
	for i := 0; i < 2; i++ {
		fmt.Printf("  %-8s", g.ActionName(0, i))
		for j := 0; j < 3; j++ {
			p := ga.Profile{i, j}
			fmt.Printf("  (%+.0f,%+.0f) ", g.Payoff(0, p), g.Payoff(1, p))
		}
		fmt.Println()
	}
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	run := func(opts ...ga.Option) (float64, float64, bool) {
		// Only Stats are read: bound the history so 2000-round sweeps
		// stop growing (and stop allocating on the play hot path).
		opts = append(opts, ga.WithHistoryLimit(8))
		s, err := ga.New(ga.MatchingPennies(), opts...)
		fatal(err)
		_, err = s.Run(context.Background(), rounds)
		fatal(err)
		st := s.Stats()
		return -st.CumulativeCost[0] / float64(rounds), -st.CumulativeCost[1] / float64(rounds), st.Excluded[1]
	}
	manip := func() *ga.MixedAgent {
		return &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
	}
	a0, b0, _ := run(
		ga.WithActual(g), ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip()),
		ga.WithAudit(ga.AuditOff), ga.WithSeed(1),
	)
	a1, b1, excl := run(
		ga.WithActual(g), ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip()),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), ga.WithAudit(ga.AuditPerRound), ga.WithSeed(2),
	)
	fmt.Printf("\n  %-22s %12s %12s\n", "configuration", "A payoff/rd", "B payoff/rd")
	fmt.Printf("  %-22s %+12.3f %+12.3f   (paper: 0 → −4 / 0 → +4)\n", "no authority", a0, b0)
	fmt.Printf("  %-22s %+12.3f %+12.3f   (manipulator excluded: %v)\n", "game authority", a1, b1, excl)
	return nil
}

// The self-stabilization experiments run on the authority the host runs:
// a distributed session built by ga.New, corrupted with Net.Corrupt and
// stepped with Net.StepLockstep, its honest replicas read back with
// ConsistentResults.

// reconvergeBudget is how many plays' worth of pulses a session may take
// from a full corruption to `stable` consistent plays before E-L2 and
// E-L3 count a timeout. It sits far above the (16, 1) tail of DESIGN §13;
// a variable so a test can break the claim.
var reconvergeBudget = 5000

// stable is how many consecutive consistent plays mark a session as
// reconverged.
const stable = 2

// distributed builds a seeded n-processor authority over the n-player
// public-goods game, the game gameauthd traces.
func distributed(n, f int, seed uint64, byz map[int]ga.Adversary) (ga.Session, *ga.DistributedSession) {
	g, err := ga.PublicGoods(n, 2)
	fatal(err)
	s, err := ga.New(g, ga.WithDistributed(n, f, byz), ga.WithSeed(seed))
	fatal(err)
	return s, ga.AsDistributed(s)
}

// periods runs p clock periods of PulsesPerPlay(f) pulses and returns the
// plays the first honest processor completed and the violations: periods
// in which some honest processor did not complete exactly one play, plus
// one if the honest replicas disagree on any of those plays. Each period's
// play is compared as it completes, because a processor retains only its
// latest plays and E-L3 runs more periods than that.
func periods(d *ga.DistributedSession, f, p int) (plays, violations int) {
	first := d.Procs[d.Honest[0]].ResultCount()
	before := make([]int, len(d.Honest))
	disagreed := false
	for k := 0; k < p; k++ {
		for i, id := range d.Honest {
			before[i] = d.Procs[id].ResultCount()
		}
		d.Net.Run(ga.PulsesPerPlay(f))
		for i, id := range d.Honest {
			if d.Procs[id].ResultCount()-before[i] != 1 {
				violations++
				break
			}
		}
		if d.ConsistentResults(1) != nil {
			disagreed = true
		}
	}
	plays = d.Procs[d.Honest[0]].ResultCount() - first
	if disagreed {
		violations++
	}
	return plays, violations
}

// reconverge corrupts every processor of d and steps it until every
// honest processor has recorded `stable` plays since the fault and their
// tails agree. It returns the pulses taken, or false on a timeout.
func reconverge(d *ga.DistributedSession, f int, entropy uint64) (int, bool) {
	d.Net.Corrupt(prng.New(entropy).Uint64)
	for pulse := 1; pulse <= reconvergeBudget*ga.PulsesPerPlay(f); pulse++ {
		d.Net.StepLockstep()
		ready := true
		for _, id := range d.Honest {
			ready = ready && d.Procs[id].ResultCount() >= stable
		}
		if ready && d.ConsistentResults(stable) == nil {
			return pulse, true
		}
	}
	return 0, false
}

func runET1(quick bool) error {
	p := 30
	if quick {
		p = 10
	}
	fmt.Printf("  %-4s %-4s %-26s %-8s %-10s\n", "n", "f", "byzantine", "plays", "violations")
	for _, row := range []struct {
		n, f int
		desc string
		byz  map[int]ga.Adversary
	}{
		{4, 1, "3: replay", map[int]ga.Adversary{3: ga.ReplayAdversary()}},
		{7, 2, "5: replay, 6: drop 80 %", map[int]ga.Adversary{5: ga.ReplayAdversary(), 6: ga.DropAdversary(3, 0.8)}},
	} {
		s, d := distributed(row.n, row.f, 17, row.byz)
		plays, violations := periods(d, row.f, p)
		fatal(s.Close())
		fmt.Printf("  %-4d %-4d %-26s %-8d %-10d\n", row.n, row.f, row.desc, plays, violations)
		if violations > 0 {
			return fmt.Errorf("n=%d f=%d: %d Theorem 1 violations", row.n, row.f, violations)
		}
	}
	fmt.Printf("  (%d periods of PulsesPerPlay(f): one agreed play per period at every honest processor — Theorem 1)\n", p)
	return nil
}

func runEL2(quick bool) error {
	trials := 32
	if quick {
		trials = 8
	}
	shapes := [][2]int{{4, 1}, {7, 2}, {10, 2}}
	if !quick {
		shapes = append(shapes, [2]int{16, 1})
	}
	fmt.Printf("  %-4s %-4s %-7s %-6s %-12s %-10s %-8s %-10s\n",
		"n", "f", "pulses", "seeds", "mean pulses", "p95", "max", "mean plays")
	for _, sh := range shapes {
		n, f := sh[0], sh[1]
		var xs []float64
		for trial := 0; trial < trials; trial++ {
			s, d := distributed(n, f, uint64(100+trial), nil)
			p, ok := reconverge(d, f, uint64(9000+trial*31))
			fatal(s.Close())
			if !ok {
				return fmt.Errorf("n=%d f=%d trial %d: no reconvergence within %d plays", n, f, trial, reconvergeBudget)
			}
			xs = append(xs, float64(p))
		}
		m := stats.Summarize(xs)
		ppp := ga.PulsesPerPlay(f)
		fmt.Printf("  %-4d %-4d %-7d %-6d %-12.1f %-10.1f %-8.0f %-10.1f\n",
			n, f, ppp, trials, m.Mean, m.P95, m.Max, m.Mean/float64(ppp))
	}
	fmt.Printf("  (pulses from a full corruption to %d consistent plays — Lemma 2; the clock's expected O(2^(n−f)) shows at (16, 1))\n", stable)
	return nil
}

func runEL3(quick bool) error {
	p := 200
	if quick {
		p = 50
	}
	const n, f = 4, 1
	s, d := distributed(n, f, 5, nil)
	defer s.Close()
	if _, ok := reconverge(d, f, 6); !ok {
		return fmt.Errorf("no reconvergence within %d plays", reconvergeBudget)
	}
	plays, violations := periods(d, f, p)
	fmt.Printf("  n=%d f=%d periods=%d plays=%d (exactly one per period) violations=%d\n", n, f, p, plays, violations)
	if violations > 0 {
		return fmt.Errorf("%d Lemma 3 violations", violations)
	}
	return nil
}

func runET5(quick bool) error {
	seeds := 20
	maxK := 10000
	if quick {
		seeds = 5
		maxK = 1000
	}
	ks := []int{1, 4, 16, 64, 256, 1024, 4096, 10000}
	exceeded := 0
	fmt.Printf("  %-8s %-8s %-8s", "n", "b", "k")
	fmt.Printf(" %-10s %-10s %-8s\n", "E[R(k)]", "1+2b/k", "ok")
	for _, cfg := range []struct{ n, b int }{{4, 2}, {8, 4}, {16, 8}} {
		for _, k := range ks {
			if k > maxK {
				continue
			}
			var ratios []float64
			for seed := 0; seed < seeds; seed++ {
				s, err := ga.New(nil,
					ga.WithRRA(cfg.n, cfg.b),
					ga.WithPunishment(ga.NewDisconnectScheme(cfg.n, 0)),
					ga.WithSeed(uint64(seed)),
					ga.WithHistoryLimit(8)) // k reaches 1000; only MaxLoad is read
				fatal(err)
				_, err = s.Run(context.Background(), k)
				fatal(err)
				r, err := ga.MultiRoundAnarchyCost(float64(ga.AsRRA(s).RRA().MaxLoad()), ga.OptMaxLoad(cfg.n, cfg.b, k))
				fatal(err)
				ratios = append(ratios, r)
			}
			mean := stats.Summarize(ratios).Mean
			bound := ga.Theorem5Bound(cfg.b, k)
			ok := "✓"
			if mean > bound+0.05 {
				ok = "✗"
				exceeded++
			}
			fmt.Printf("  %-8d %-8d %-8d %-10.4f %-10.4f %-8s\n", cfg.n, cfg.b, k, mean, bound, ok)
		}
	}
	fmt.Println("  (R(k) ≤ 1+2b/k and R(k) → 1 — Theorem 5)")
	if exceeded > 0 {
		return fmt.Errorf("%d points above the Theorem 5 bound", exceeded)
	}
	return nil
}

func runEPoM(quick bool) error {
	grid := 24
	if quick {
		grid = 12
	}
	const c, l = 1.0, 64.0
	fmt.Printf("  grid %dx%d, C=%.0f, L=%.0f\n", grid, grid, c, l)
	fmt.Printf("  %-8s %-16s %-14s %-14s\n", "byz", "PoM(no auth)", "PoM(auth)", "liars cut")
	for _, byzCount := range []int{0, 2, 4, 8, 12} {
		base, err := game.NewInoculation(grid, grid, c, l)
		fatal(err)
		secure, _ := base.Equilibrium(1, 400)
		costBase := base.SocialCost(secure, base.HonestNodes())

		var ids []int
		for i := 0; i < byzCount; i++ {
			// Scatter along two rows to bridge components, wrapping the
			// column within the grid.
			row := 4 + 7*(i%2)
			col := (3 + (i/2)*2) % grid
			ids = append(ids, row*grid+col)
		}
		withByz, err := game.NewInoculation(grid, grid, c, l)
		fatal(err)
		withByz.SetByzantine(ids...)
		secureB, _ := withByz.Equilibrium(1, 400)
		costWith := withByz.SocialCost(secureB, withByz.HonestNodes())

		auth, err := game.NewInoculation(grid, grid, c, l)
		fatal(err)
		auth.SetByzantine(ids...)
		secureA, _ := auth.Equilibrium(1, 400)
		liars := auth.AuditByzantine(secureA)
		if len(liars) > 0 {
			// Executive disconnects the liars; honest nodes
			// re-equilibrate on the truthful residual network.
			for _, id := range liars {
				auth.Disconnect(id)
			}
			secureA, _ = auth.Equilibrium(1, 400)
		}
		costAuth := auth.SocialCost(secureA, auth.HonestNodes())

		pomNo := costWith / costBase
		pomAuth := costAuth / costBase
		fmt.Printf("  %-8d %-16.3f %-14.3f %-14d\n", byzCount, pomNo, pomAuth, len(liars))
	}
	fmt.Println("  (the authority pushes PoM back toward 1 for every byz > 0 — §5.4)")
	return nil
}

func runEAUD(quick bool) error {
	rounds := 256
	if quick {
		rounds = 64
	}
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	fmt.Printf("  %-16s %-14s %-14s %-16s %-18s\n", "discipline", "commitments", "agreements", "agreements/rd", "est. messages")
	runMode := func(label string, audit ga.Option) {
		s, err := ga.New(ga.MatchingPennies(),
			ga.WithStrategies(strategies),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
			audit, ga.WithSeed(1),
			ga.WithHistoryLimit(8)) // only protocol counters are read
		fatal(err)
		_, err = s.Run(context.Background(), rounds)
		fatal(err)
		fatal(s.Close()) // audits the trailing partial epoch in batched mode
		st := s.Stats().Protocol
		fmt.Printf("  %-16s %-14d %-14d %-16.3f %-18d\n", label,
			st.Commitments, st.Agreements, float64(st.Agreements)/float64(rounds), st.MessageEstimate)
	}
	runMode("per-round", ga.WithAudit(ga.AuditPerRound))
	for _, t := range []int{2, 4, 8, 16, 32, 64} {
		runMode(fmt.Sprintf("batched T=%d", t), ga.WithAudit(ga.AuditBatched, ga.EpochLen(t)))
	}
	fmt.Println("  (batched epoch audits amortize the §5.3 overhead roughly as 3/T)")
	return nil
}

func runEPUN(quick bool) error {
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	fmt.Printf("  %-14s %-20s %-18s\n", "scheme", "rounds to exclude", "damage (B's gain)")
	ctx := context.Background()
	for _, mk := range []func() ga.PunishmentScheme{
		func() ga.PunishmentScheme { return ga.NewDisconnectScheme(2, 0) },
		func() ga.PunishmentScheme { return ga.NewReputationScheme(2, 0.5, 0.2, 0) },
		func() ga.PunishmentScheme { return ga.NewDepositScheme(2, 3, 1) },
	} {
		scheme := mk()
		manip := &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
		s, err := ga.New(ga.MatchingPennies(),
			ga.WithActual(ga.MatchingPenniesManipulated()),
			ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip),
			ga.WithPunishment(scheme), ga.WithAudit(ga.AuditPerRound), ga.WithSeed(9),
			ga.WithHistoryLimit(8)) // only exclusion flags and costs are read
		fatal(err)
		excludedAt := -1
		for r := 1; r <= 200; r++ {
			_, err := s.Play(ctx)
			fatal(err)
			if s.Stats().Excluded[1] {
				excludedAt = r
				break
			}
		}
		_, err = s.Run(ctx, 100) // post-exclusion tail
		fatal(err)
		fmt.Printf("  %-14s %-20d %-18.2f\n", scheme.Name(), excludedAt, -s.Stats().CumulativeCost[1])
	}
	fmt.Println("  (harsher schemes bound the manipulation damage sooner — §3.4)")
	return nil
}

func runEVOTE(quick bool) error {
	candidates := []ga.Candidate{
		{Game: ga.MatchingPennies(), Description: "matching pennies"},
		{Game: ga.PrisonersDilemma(), Description: "prisoner's dilemma"},
		{Game: ga.CoordinationGame(), Description: "coordination"},
	}
	voters := []ga.Voter{
		{Prefs: []int{0, 1, 2}}, {Prefs: []int{0, 1, 2}},
		{Prefs: []int{1, 0, 2}}, {Prefs: []int{1, 0, 2}},
		{Prefs: []int{2, 1, 0}, Manipulative: true},
	}
	naive, err := ga.NaiveElection(candidates, voters)
	fatal(err)
	robust, err := ga.RobustElection(candidates, voters, 3)
	fatal(err)
	fmt.Printf("  %-10s winner=%d (%s) scores=%v\n", "naive", naive.Winner, candidates[naive.Winner].Description, naive.Scores)
	fmt.Printf("  %-10s winner=%d (%s) scores=%v cheaters=%v\n", "robust", robust.Winner, candidates[robust.Winner].Description, robust.Scores, robust.Cheaters)
	fmt.Println("  (commit-reveal forecloses last-mover manipulation — §3.1)")
	return nil
}

func runEBAP(quick bool) error {
	const plays = 3
	shapes := [][2]int{{4, 1}, {7, 2}, {10, 2}}
	if !quick {
		shapes = append(shapes, [2]int{16, 1})
	}
	fmt.Printf("  %-4s %-4s %-16s %-18s %-14s %-10s\n", "n", "f", "pulses/play", "messages/play", "bap.Cost", "agreement")
	for _, sh := range shapes {
		n, f := sh[0], sh[1]
		s, d := distributed(n, f, 1, nil)
		d.Net.Run(plays * ga.PulsesPerPlay(f))
		agreed := d.Procs[d.Honest[0]].ResultCount() == plays && d.ConsistentResults(plays) == nil
		fatal(s.Close())
		fmt.Printf("  %-4d %-4d %-16d %-18d %-14.0f %-10v\n",
			n, f, ga.PulsesPerPlay(f), d.Net.Stats.MessagesSent/plays, bap.Cost(n, f), agreed)
		if !agreed {
			return fmt.Errorf("n=%d f=%d: honest replicas disagree", n, f)
		}
	}
	fmt.Println("  (four interactive consistencies per play; EIG cost grows as n^(f+3) — the [16] trade-off; (10, 3) and (13, 4) are refused at the door)")
	return nil
}

func runEEXT(quick bool) error {
	rounds := 400
	trials := 10
	if quick {
		rounds = 200
		trials = 4
	}
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}

	// --- Sampled auditing (§1.1): detection latency vs overhead ------------
	fmt.Println("  sampled auditing (§1.1 extension): Fig. 1 manipulator, varying spot-check rate")
	fmt.Printf("  %-10s %-22s %-18s %-14s\n", "p", "mean rounds to catch", "agreements/rd", "reveals/rd")
	ctx := context.Background()
	for _, p := range []float64{1.0, 0.5, 0.2, 0.05} {
		var latencies []float64
		var agreements, reveals float64
		for trial := 0; trial < trials; trial++ {
			manip := &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
			s, err := ga.New(ga.MatchingPennies(),
				ga.WithActual(ga.MatchingPenniesManipulated()),
				ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip),
				ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
				ga.WithAudit(ga.AuditSampled, ga.SampleProb(p)),
				ga.WithSeed(uint64(trial*131)),
				ga.WithHistoryLimit(8)) // detection latency only needs Stats
			fatal(err)
			caught := float64(rounds + 1)
			for r := 1; r <= rounds; r++ {
				_, err := s.Play(ctx)
				fatal(err)
				if s.Stats().Excluded[1] {
					caught = float64(r)
					break
				}
			}
			latencies = append(latencies, caught)
			st := s.Stats()
			agreements += float64(st.Protocol.Agreements) / float64(st.Rounds)
			reveals += float64(st.Protocol.Reveals) / float64(st.Rounds)
		}
		fmt.Printf("  %-10.2f %-22.1f %-18.2f %-14.2f\n",
			p, stats.Summarize(latencies).Mean, agreements/float64(trials), reveals/float64(trials))
	}

	// --- Statistical screening (§5.2) ---------------------------------------
	fmt.Println("\n  statistical screening (§5.2): biased player vs declared uniform strategy")
	biased := &ga.MixedAgent{Override: func(int, int) int { return 0 }}
	s, err := ga.New(ga.MatchingPennies(),
		ga.WithStrategies(strategies), ga.WithMixedAgents(nil, biased),
		ga.WithPunishment(ga.NewReputationScheme(2, 0.5, 0.4, 0)),
		ga.WithAudit(ga.AuditStatistical, ga.Window(50), ga.ChiThreshold(6.63)),
		ga.WithSeed(17),
		ga.WithHistoryLimit(8)) // 600-round screen; only Stats are read
	fatal(err)
	caught := -1
	for r := 1; r <= 600; r++ {
		_, err := s.Play(ctx)
		fatal(err)
		if s.Stats().Excluded[1] {
			caught = r
			break
		}
	}
	fmt.Printf("  always-Heads player excluded after %d rounds (window=50, χ² threshold 6.63), zero commitments\n", caught)

	// --- Repeated re-election (§3.1) -----------------------------------------
	fmt.Println("\n  repeated re-election (§3.1 extension): preferences drift after term 1")
	results, err := ga.PlayTerms(ga.ReelectionConfig{
		Candidates: []ga.Candidate{
			{Game: ga.PrisonersDilemma(), Description: "prisoner's dilemma"},
			{Game: ga.CoordinationGame(), Description: "coordination"},
		},
		Voters: 5,
		Prefs: func(term, voter int) []int {
			if term < 2 || voter == 0 {
				return []int{0, 1}
			}
			return []int{1, 0}
		},
		TermLength: 10,
		Seed:       23,
	}, 4)
	fatal(err)
	fmt.Printf("  %-8s %-10s %-22s %-14s\n", "term", "winner", "game", "social cost")
	names := []string{"prisoner's dilemma", "coordination"}
	for _, r := range results {
		fmt.Printf("  %-8d %-10d %-22s %-14.1f\n", r.Term, r.Election.Winner, names[r.Election.Winner], r.SocialCost)
	}
	fmt.Println("  (the society reelects a cheaper game once its preferences shift)")
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
