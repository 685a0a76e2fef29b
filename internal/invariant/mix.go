// Package invariant is the one place the authority's end-to-end
// correctness claims are written down as code: the seeded scenario fleet
// every harness drives (each scenario defined once, as the wire spec
// POST /sessions takes), the in-process / HTTP / WebSocket players that
// drive it, and the five checks a run is held to — round accounting, the
// fault-free twin's digest, the verdict rule, crash recovery, and
// subscription sequence order. The root acceptance table, the
// crash-recovery and cross-transport tests and cmd/loadgen all consume
// it; none of them carries its own copy.
package invariant

import (
	"fmt"
	"sort"

	ga "gameauthority"
)

// HistoryLimit bounds every fleet session's retained history, so a
// thousand long-running sessions keep a flat memory footprint. It is also
// the largest batch a self-healing client can have deduplicated whole
// after a lost acknowledgement: the orphaned rounds are replayed from
// this ring.
const HistoryLimit = 8

// Scenario is one entry of the load mix.
type Scenario struct {
	Name   string
	Driver string // pure | mixed | rra | distributed
	Weight int
	// PlaysDiv divides the play budget: a distributed play costs about
	// 300 pure ones, and an equal budget would make it the whole run.
	PlaysDiv int
	// Spec is the session as POST /sessions takes it. Fleet fills in the
	// id, the seed, the history limit and the deviant.
	Spec ga.CreateSessionRequest
}

// Mix returns the built-in weighted scenario mix: every catalog family on
// the pure driver plus the mixed, RRA and distributed drivers, so a
// default run exercises the full driver matrix.
func Mix() []Scenario {
	return []Scenario{
		pureScenario("congestion", 4, 4),
		pureScenario("braess", 4, 3),
		pureScenario("coordination-n", 3, 3),
		pureScenario("publicgoods-punish", 4, 3),
		pureScenario("minority", 5, 3),
		pureScenario("firstprice", 3, 2),
		pureScenario("secondprice", 3, 2),
		pureScenario("pd", 2, 3),
		// Auditing without an executive is a configuration error, so the
		// spec translation defaults this one to the disconnection scheme.
		{Name: "mixed-pennies", Driver: "mixed", Weight: 4,
			Spec: ga.CreateSessionRequest{Game: "matchingpennies", Kind: "mixed", Audit: "per-round"}},
		{Name: "rra", Driver: "rra", Weight: 3,
			Spec: ga.CreateSessionRequest{RRA: RRAShape(8, 4), Punishment: &ga.PunishmentSpec{Scheme: "disconnect"}}},
		// The Byzantine families run on the driver they model: public
		// goods, fork-choice mining and committee attestation replicated
		// over interactive consistency with one tolerated fault. The
		// driver's executive replicas default to one-strike disconnection.
		distScenario("dist-publicgoods", "publicgoods"),
		distScenario("dist-mining", "mining"),
		distScenario("dist-committee", "validator-committee"),
	}
}

func pureScenario(name string, players, weight int) Scenario {
	return Scenario{Name: name, Driver: "pure", Weight: weight,
		Spec: ga.CreateSessionRequest{Game: name, Players: players}}
}

func distScenario(name, game string) Scenario {
	const n, f = 4, 1
	return Scenario{Name: name, Driver: "distributed", Weight: 1, PlaysDiv: 4,
		Spec: ga.CreateSessionRequest{Game: game, Players: n, Distributed: DistShape(n, f),
			PulseBudget: 1000 * ga.PulsesPerPlay(f)}}
}

// DistShape is the "distributed" object of a session spec.
func DistShape(n, f int) *struct {
	N int `json:"n"`
	F int `json:"f"`
} {
	return &struct {
		N int `json:"n"`
		F int `json:"f"`
	}{n, f}
}

// RRAShape is the "rra" object of a session spec.
func RRAShape(agents, resources int) *struct {
	Agents    int `json:"agents"`
	Resources int `json:"resources"`
} {
	return &struct {
		Agents    int `json:"agents"`
		Resources int `json:"resources"`
	}{agents, resources}
}

// VisibleDeviants are the catalog strategies that deviate at the protocol
// level — a reveal that does not match its commitment, a reveal withheld.
// In slot 0 of every scenario of the mix they are convicted on every seed
// within the first play (TestVisibleDeviantsConvicted), which is what
// lets the verdict rule be asserted rather than reported as a rate. The
// payoff-level strategies are visible only where the deviation happens to
// differ from the honest play, so the rule makes no claim about them.
var VisibleDeviants = []string{"commitment-cheat", "freerider"}

// Slot is one session of a fleet: its spec and play budget, and, once
// created, its player and what that player has acknowledged.
type Slot struct {
	Scenario int // index into the mix the fleet was built from
	Spec     ga.CreateSessionRequest
	Plays    int
	Player   Player
	Acked    Acks
}

// Fleet apportions sessions over the mix by weight and seeds them:
// session k runs at seed+k, heavy drivers play their documented fraction
// of plays, and a deviants fraction of the sessions, spread evenly over
// the run, carries one selfish player in slot 0, rotating through
// strategies. A deviant on an unpunished scenario gets the paper's
// disconnection scheme, so the executive can convict what the judicial
// service detects.
func Fleet(mix []Scenario, sessions, plays int, seed uint64, deviants float64, strategies []string) ([]*Slot, error) {
	if sessions < len(mix) {
		// Every scenario of the mix gets at least one session.
		return nil, fmt.Errorf("%d sessions is below the mix's %d scenarios", sessions, len(mix))
	}
	slots := make([]*Slot, 0, sessions)
	deviant := 0
	for i, count := range sessionCounts(mix, sessions) {
		sc := mix[i]
		budget := plays
		if sc.PlaysDiv > 1 {
			budget = max(plays/sc.PlaysDiv, 1)
		}
		for j := 0; j < count; j++ {
			k := len(slots)
			spec := sc.Spec
			spec.ID = fmt.Sprintf("lg-%s-%d", sc.Name, k)
			spec.Seed = seed + uint64(k)
			spec.HistoryLimit = HistoryLimit
			// Bresenham on the slot index spreads the deviants; the
			// strategy rotates by deviant ordinal, since a slot stride
			// that divides the catalog size would pin one strategy.
			if int(float64(k+1)*deviants) > int(float64(k)*deviants) {
				spec.Deviant = &ga.DeviantSpec{Player: 0, Strategy: strategies[deviant%len(strategies)]}
				deviant++
				if sc.Driver == "pure" && spec.Punishment == nil {
					spec.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
				}
			}
			slots = append(slots, &Slot{Scenario: i, Spec: spec, Plays: budget})
		}
	}
	return slots, nil
}

// sessionCounts apportions the session budget over the mix proportionally
// to weight; every scenario gets at least one session, and rounding
// remainders go to the heaviest scenarios so the total is exact.
func sessionCounts(mix []Scenario, sessions int) []int {
	total := 0
	for _, sc := range mix {
		total += sc.Weight
	}
	counts := make([]int, len(mix))
	assigned := 0
	for i, sc := range mix {
		counts[i] = max(sessions*sc.Weight/total, 1)
		assigned += counts[i]
	}
	// Distribute (or claw back) the rounding difference by weight order.
	order := make([]int, len(mix))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return mix[order[a]].Weight > mix[order[b]].Weight })
	for i := 0; assigned != sessions; i = (i + 1) % len(order) {
		j := order[i]
		if assigned < sessions {
			counts[j]++
			assigned++
		} else if counts[j] > 1 {
			counts[j]--
			assigned--
		}
	}
	return counts
}
