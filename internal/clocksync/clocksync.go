package clocksync

import (
	"errors"
	"fmt"

	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

// ErrConfig reports an invalid clock configuration.
var ErrConfig = errors.New("clocksync: invalid configuration")

// tickMsg is the per-pulse clock broadcast.
type tickMsg struct {
	Val int
}

// Clock is one processor's self-stabilizing clock.
type Clock struct {
	id, n, f, m int
	value       int
	src         *prng.Source

	// lastQuorum records whether the previous update used the quorum rule
	// (true in the synchronized regime); exposed for diagnostics.
	lastQuorum bool

	// Vote accumulators, pre-sized at construction so the per-pulse
	// Vote/Tick cycle never allocates: votes counts ballots per clock value,
	// voted marks senders already heard this pulse.
	votes  []int
	voted  []bool
	nvotes int
}

var (
	_ sim.Process     = (*Clock)(nil)
	_ sim.Corruptible = (*Clock)(nil)
)

// New creates processor id's clock with modulus m. Requires n > 3f and
// m ≥ 2. seed feeds the processor's private coin.
func New(id, n, f, m int, seed uint64) (*Clock, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("%w: n=%d must exceed 3f=%d", ErrConfig, n, 3*f)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("%w: id=%d", ErrConfig, id)
	}
	if m < 2 {
		return nil, fmt.Errorf("%w: m=%d", ErrConfig, m)
	}
	return &Clock{
		id: id, n: n, f: f, m: m,
		src:   prng.Derive(seed, 0xC10C, uint64(id)),
		votes: make([]int, m),
		voted: make([]bool, n),
	}, nil
}

// ID implements sim.Process.
func (c *Clock) ID() int { return c.id }

// Value returns the current clock value in [0, M).
func (c *Clock) Value() int { return c.value }

// M returns the clock modulus.
func (c *Clock) M() int { return c.m }

// LastQuorum reports whether the most recent update used the quorum rule.
func (c *Clock) LastQuorum() bool { return c.lastQuorum }

// Step implements sim.Process: absorb the previous pulse's clock votes,
// update, and broadcast the new value.
func (c *Clock) Step(pulse int, inbox []sim.Message) []sim.Message {
	for _, msg := range inbox {
		if tick, ok := msg.Payload.(tickMsg); ok {
			c.Vote(msg.From, tick.Val)
		}
	}
	c.Tick()
	return broadcastAll(c.id, c.n, tickMsg{Val: c.value})
}

// Vote records the clock value reported by processor from on the current
// pulse (first report per sender wins; Byzantine garbage is sanitized into
// range). The distributed authority (internal/core) calls Vote/Tick
// directly, multiplexing clock votes into its own message type.
func (c *Clock) Vote(from, value int) {
	if from < 0 || from >= c.n || c.voted[from] {
		return
	}
	c.voted[from] = true
	v := ((value % c.m) + c.m) % c.m
	c.votes[v]++
	c.nvotes++
}

// Tick applies the quorum/coin update rule to the votes collected since the
// last Tick and resets the collection. With no votes the clock is left
// unchanged (no information to act on). It returns the new value.
func (c *Clock) Tick() int {
	if c.nvotes > 0 {
		c.update()
		for i := range c.votes {
			c.votes[i] = 0
		}
		for i := range c.voted {
			c.voted[i] = false
		}
		c.nvotes = 0
	}
	return c.value
}

// update applies the quorum/coin rule to one pulse's votes. Both rules scan
// values in ascending order, so "smallest wins" ties need no sorting.
func (c *Clock) update() {
	quorum := c.n - c.f
	// Quorum rule (unique candidate for n > 3f; take smallest for
	// determinism against malformed vote multisets).
	for v := 0; v < c.m; v++ {
		if c.votes[v] >= quorum {
			c.value = (v + 1) % c.m
			c.lastQuorum = true
			return
		}
	}
	c.lastQuorum = false
	// Coin rule: plurality (ties toward smallest value) or reset.
	w, wCount := 0, -1
	for v := 0; v < c.m; v++ {
		if c.votes[v] > 0 && c.votes[v] > wCount {
			w, wCount = v, c.votes[v]
		}
	}
	if c.src.Bool() {
		c.value = (w + 1) % c.m
	} else {
		c.value = 0
	}
}

// Corrupt implements sim.Corruptible: the transient-fault adversary sets
// the clock to an arbitrary (even out-of-range) value and scrambles the
// coin stream position.
func (c *Clock) Corrupt(entropy func() uint64) {
	c.value = int(entropy() % uint64(4*c.m)) // possibly out of range on purpose
	c.src.SetState(entropy())
	c.lastQuorum = false
}

// broadcastAll emits one message per processor, including self (so quorum
// counting includes the local vote).
func broadcastAll(from, n int, payload any) []sim.Message {
	out := make([]sim.Message, 0, n)
	for to := 0; to < n; to++ {
		out = append(out, sim.Message{From: from, To: to, Payload: payload})
	}
	return out
}

// Synchronized reports whether all the given clocks share one value.
func Synchronized(clocks []*Clock, ids []int) bool {
	if len(ids) == 0 {
		return true
	}
	want := clocks[ids[0]].Value()
	for _, id := range ids[1:] {
		if clocks[id].Value() != want {
			return false
		}
	}
	return true
}

// ConvergencePulses runs the network until the honest clocks have been
// synchronized (and advancing via the quorum rule) for `stable` consecutive
// pulses, returning the number of pulses taken, or maxPulses+1 if the bound
// was exhausted. The caller owns network construction so it can install
// adversaries and corrupt state first.
func ConvergencePulses(nw *sim.Network, clocks []*Clock, honest []int, stable, maxPulses int) int {
	run := 0
	for pulse := 1; pulse <= maxPulses; pulse++ {
		nw.StepLockstep()
		if Synchronized(clocks, honest) {
			run++
			if run >= stable {
				return pulse
			}
		} else {
			run = 0
		}
	}
	return maxPulses + 1
}
