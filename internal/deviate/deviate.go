package deviate

import (
	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/core"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

// The strategy catalog. Every strategy implements core.Deviant, compiling
// itself into the hook set of whichever driver the session runs on:
//
//	strategy           foul class it provokes
//	AlwaysDefect       not-best-response (pure/dist), seed-mismatch (mixed/RRA)
//	BestResponseLiar   not-best-response (pure/dist), seed-mismatch (mixed/RRA)
//	CommitmentCheat    commit-mismatch (pure/dist/mixed), seed-mismatch (RRA)
//	DistributionSkewer intermittent versions of the above (audit-sampling probe)
//	Freerider          missing-reveal (pure/dist/mixed), off-stream camping (RRA)
//
// Strategies are deterministic in (session seed, player): paired honest
// and deviant twins with the same seed replay identically up to the
// deviation, which is what makes ProfitAudit's utility deltas meaningful.

// Registry returns one instance of every strategy with its default
// parameterization, ordered by name. cmd/loadgen -deviants draws from
// here, and the HTTP API resolves these names in POST /sessions.
func Registry() []core.Deviant {
	return []core.Deviant{
		AlwaysDefect(),
		BestResponseLiar(),
		CommitmentCheat(),
		DistributionSkewer(0.5),
		Freerider(),
	}
}

// ByName resolves a registry strategy, reporting ok=false for unknown
// names.
func ByName(name string) (core.Deviant, bool) {
	for _, d := range Registry() {
		if d.Name() == name {
			return d, true
		}
	}
	return nil, false
}

// Names returns the registry's strategy names in registry order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, d := range reg {
		out[i] = d.Name()
	}
	return out
}

// --- AlwaysDefect ---------------------------------------------------------------

type alwaysDefect struct{}

// AlwaysDefect camps the highest-index action ("defect" in the dilemma
// family) every round, ignoring the best-response duty. On drivers with a
// committed randomness stream every camped play is off-stream.
func AlwaysDefect() core.Deviant { return alwaysDefect{} }

func (alwaysDefect) Name() string { return "always-defect" }

func (alwaysDefect) PureAgent(g game.Game, player int, seed uint64) *core.Agent {
	last := g.NumActions(player) - 1
	return &core.Agent{Choose: func(int, game.Profile) int { return last }}
}

func (alwaysDefect) MixedAgentFor(g game.Game, player int, seed uint64) *core.MixedAgent {
	last := g.NumActions(player) - 1
	return &core.MixedAgent{Override: func(int, int) int { return last }}
}

func (alwaysDefect) RRAChooser(player int, seed uint64) func(int, []int64, int) int {
	return func(_ int, loads []int64, _ int) int { return len(loads) - 1 }
}

// --- BestResponseLiar -----------------------------------------------------------

type bestResponseLiar struct{}

// BestResponseLiar is the one-step-lookahead cheat: instead of
// best-responding to the previous outcome (the §3.2 honesty duty), it
// predicts what every honest opponent will play *this* round and best
// responds to the prediction — a genuinely selfish deviation that can
// strictly profit in games where the two differ. On the mixed and RRA
// drivers it abandons the committed sample for its myopically best
// action (minimum expected cost against the others' play).
func BestResponseLiar() core.Deviant { return bestResponseLiar{} }

func (bestResponseLiar) Name() string { return "best-response-liar" }

func (bestResponseLiar) PureAgent(g game.Game, player int, seed uint64) *core.Agent {
	n := g.NumPlayers()
	pred := make(game.Profile, n)
	return &core.Agent{Choose: func(round int, prev game.Profile) int {
		for j := 0; j < n; j++ {
			if prev == nil {
				pred[j] = 0 // honest agents open with action 0
			} else {
				pred[j] = game.BestResponse(g, j, prev)
			}
		}
		return game.BestResponse(g, player, pred)
	}}
}

func (bestResponseLiar) MixedAgentFor(g game.Game, player int, seed uint64) *core.MixedAgent {
	preferred := preferredAction(g, player, seed)
	return &core.MixedAgent{Override: func(int, int) int { return preferred }}
}

func (bestResponseLiar) RRAChooser(player int, seed uint64) func(int, []int64, int) int {
	return func(_ int, loads []int64, _ int) int { return argminLoad(loads) }
}

// --- CommitmentCheat ------------------------------------------------------------

type commitmentCheat struct{}

// CommitmentCheat plays the honest protocol up to the reveal, then opens
// a *different* value than it committed to — the classic equivocation the
// Blum commitments exist to catch. The judicial service convicts it with
// a commit-mismatch (severity 1) and the executive substitutes an honest
// action, so the cheat can never land. On the RRA driver (whose harness
// owns the openings) the cheat manifests as playing one resource off the
// committed stream.
func CommitmentCheat() core.Deviant { return commitmentCheat{} }

func (commitmentCheat) Name() string { return "commitment-cheat" }

func (commitmentCheat) PureAgent(g game.Game, player int, seed uint64) *core.Agent {
	honest := core.HonestPure(g, player)
	k := g.NumActions(player)
	return &core.Agent{
		Choose: honest.Choose,
		TamperOpening: func(round int, op commitOpening) commitOpening {
			if a, err := audit.DecodeAction(op.Value); err == nil {
				op.Value = audit.EncodeAction((a + 1) % k)
			}
			return op
		},
	}
}

func (commitmentCheat) MixedAgentFor(g game.Game, player int, seed uint64) *core.MixedAgent {
	return &core.MixedAgent{
		TamperSeedOpening: func(round int, op commitOpening) commitOpening {
			if s, err := audit.DecodeSeed(op.Value); err == nil {
				op.Value = audit.EncodeSeed(s + 1)
			}
			return op
		},
	}
}

func (commitmentCheat) RRAChooser(player int, seed uint64) func(int, []int64, int) int {
	return func(_ int, loads []int64, honest int) int {
		return (honest + 1) % len(loads)
	}
}

// --- DistributionSkewer ---------------------------------------------------------

type distributionSkewer struct{ prob float64 }

// DistributionSkewer plays honestly most of the time but replaces the
// honest action with its myopic favourite with the given probability —
// the adversary the sampled and statistical audit disciplines exist for:
// a per-round audit catches every skewed play, a sampled audit catches a
// fraction, and the §5.2 frequency screen catches the drift.
func DistributionSkewer(prob float64) core.Deviant {
	if prob <= 0 || prob > 1 {
		prob = 0.5
	}
	return distributionSkewer{prob: prob}
}

func (distributionSkewer) Name() string { return "distribution-skewer" }

// skews reports whether the strategy deviates this round, on a stream
// derived from (seed, player, round) so twins replay identically.
func (d distributionSkewer) skews(seed uint64, player, round int) bool {
	src := prng.Derive(seed, 0xD57E, uint64(player), uint64(round))
	return src.Float64() < d.prob
}

func (d distributionSkewer) PureAgent(g game.Game, player int, seed uint64) *core.Agent {
	honest := core.HonestPure(g, player)
	preferred := preferredAction(g, player, seed)
	return &core.Agent{Choose: func(round int, prev game.Profile) int {
		if d.skews(seed, player, round) {
			return preferred
		}
		return honest.Choose(round, prev)
	}}
}

func (d distributionSkewer) MixedAgentFor(g game.Game, player int, seed uint64) *core.MixedAgent {
	preferred := preferredAction(g, player, seed)
	return &core.MixedAgent{Override: func(round, honestAction int) int {
		if d.skews(seed, player, round) {
			return preferred
		}
		return honestAction
	}}
}

func (d distributionSkewer) RRAChooser(player int, seed uint64) func(int, []int64, int) int {
	return func(round int, loads []int64, honest int) int {
		if d.skews(seed, player, round) {
			return argminLoad(loads)
		}
		return honest
	}
}

// --- Freerider ------------------------------------------------------------------

type freerider struct{}

// Freerider shirks the protocol's duties: it plays along but never
// reveals, free-riding on everyone else's auditability. The judicial
// service charges a missing-reveal (severity 1) and the executive takes
// over its play. On the RRA driver it camps resource 0, free-riding on
// the other agents' load balancing.
func Freerider() core.Deviant { return freerider{} }

func (freerider) Name() string { return "freerider" }

func (freerider) PureAgent(g game.Game, player int, seed uint64) *core.Agent {
	honest := core.HonestPure(g, player)
	return &core.Agent{
		Choose:   honest.Choose,
		Withhold: func(int) bool { return true },
	}
}

func (freerider) MixedAgentFor(g game.Game, player int, seed uint64) *core.MixedAgent {
	return &core.MixedAgent{Withhold: func(int) bool { return true }}
}

func (freerider) RRAChooser(player int, seed uint64) func(int, []int64, int) int {
	return func(int, []int64, int) int { return 0 }
}

// --- Shared helpers -------------------------------------------------------------

// commitOpening aliases the commitment opening type the agent hooks use.
type commitOpening = commit.Opening

// argminLoad returns the least-loaded resource (ties toward the lowest
// index) — the myopically selfish RRA choice.
func argminLoad(loads []int64) int {
	best := 0
	for a := 1; a < len(loads); a++ {
		if loads[a] < loads[best] {
			best = a
		}
	}
	return best
}

// preferredAction is the action minimizing the player's expected cost
// when every opponent plays uniformly — the myopic favourite a skewing
// deviant drifts toward. Small opponent profile spaces are enumerated
// exactly; larger ones are estimated from a fixed sample of profiles
// drawn on a stream derived from seed (deterministic per session).
func preferredAction(g game.Game, player int, seed uint64) int {
	n := g.NumPlayers()
	space := 1
	exact := true
	for j := 0; j < n && exact; j++ {
		if j == player {
			continue
		}
		space *= g.NumActions(j)
		if space > 1<<14 {
			exact = false
		}
	}
	k := g.NumActions(player)
	costs := make([]float64, k)
	profile := make(game.Profile, n)
	if exact {
		var rec func(j int)
		rec = func(j int) {
			if j == n {
				for a := 0; a < k; a++ {
					profile[player] = a
					costs[a] += g.Cost(player, profile)
				}
				return
			}
			if j == player {
				rec(j + 1)
				return
			}
			for b := 0; b < g.NumActions(j); b++ {
				profile[j] = b
				rec(j + 1)
			}
		}
		rec(0)
	} else {
		src := prng.Derive(seed, 0x9EFE, uint64(player))
		const samples = 1024
		for s := 0; s < samples; s++ {
			for j := 0; j < n; j++ {
				if j != player {
					profile[j] = int(src.Uint64() % uint64(g.NumActions(j)))
				}
			}
			for a := 0; a < k; a++ {
				profile[player] = a
				costs[a] += g.Cost(player, profile)
			}
		}
	}
	best := 0
	for a := 1; a < k; a++ {
		if costs[a] < costs[best] {
			best = a
		}
	}
	return best
}
