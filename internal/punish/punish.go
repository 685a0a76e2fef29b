package punish

import (
	"errors"
	"fmt"
)

// ErrUnknownAgent is returned for out-of-range agent ids.
var ErrUnknownAgent = errors.New("punish: unknown agent")

// Scheme is a punishment policy. Implementations must be deterministic.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Punish applies a sanction of the given severity (in [0,1], see
	// audit.Reason.Severity) to agent at round.
	Punish(agent, round int, severity float64) error
	// Excluded reports whether the agent is currently barred from play
	// (the "restricts the action of dishonest agents" outcome, §3.4).
	Excluded(agent int) bool
	// Standing returns a scheme-specific score (reputation, balance,
	// offence count) for reporting; higher is better.
	Standing(agent int) float64
	// Fresh returns an unpunished scheme with the same parameters: the
	// distributed driver gives every processor's executive its own copy.
	Fresh() Scheme
}

// ledger is all a scheme keeps of its agents: one value each
// (Disconnect's strikes, Reputation's score, Deposit's balance), and the
// tag that names the scheme in the ledger encoding (AppendLedger).
type ledger struct {
	tag    byte
	values []float64
}

// newLedger returns the ledger of n agents, each starting at v.
func newLedger(tag byte, n int, v float64) ledger {
	l := ledger{tag: tag, values: make([]float64, n)}
	for i := range l.values {
		l.values[i] = v
	}
	return l
}

// has reports whether agent is in range.
func (l *ledger) has(agent int) bool { return agent >= 0 && agent < len(l.values) }

// check is ErrUnknownAgent for an agent out of range.
func (l *ledger) check(agent int) error {
	if !l.has(agent) {
		return fmt.Errorf("%w: %d", ErrUnknownAgent, agent)
	}
	return nil
}

// --- Disconnect --------------------------------------------------------------

// Disconnect bars an agent permanently after its offences reach a strike
// budget (default 1 — the paper's "only effective option is to disconnect
// Byzantine agents from the network"). Its ledger holds each agent's
// strikes.
type Disconnect struct {
	ledger
	budget float64
}

var _ Scheme = (*Disconnect)(nil)

// NewDisconnect creates the scheme for n agents; budget ≤ 0 defaults to 1
// (first proven foul disconnects).
func NewDisconnect(n int, budget float64) *Disconnect {
	if budget <= 0 {
		budget = 1
	}
	return &Disconnect{ledger: newLedger(1, n, 0), budget: budget}
}

// Name implements Scheme.
func (d *Disconnect) Name() string { return "disconnect" }

// Punish implements Scheme.
func (d *Disconnect) Punish(agent, _ int, severity float64) error {
	if err := d.check(agent); err != nil {
		return err
	}
	d.values[agent] += severity
	return nil
}

// Excluded implements Scheme.
func (d *Disconnect) Excluded(agent int) bool {
	return d.has(agent) && d.values[agent] >= d.budget
}

// Standing implements Scheme: remaining strike budget.
func (d *Disconnect) Standing(agent int) float64 {
	if !d.has(agent) {
		return 0
	}
	return max(0, d.budget-d.values[agent])
}

// Fresh implements Scheme.
func (d *Disconnect) Fresh() Scheme { return NewDisconnect(len(d.values), d.budget) }

// --- Reputation ---------------------------------------------------------------

// Reputation multiplies an agent's score by a decay factor per offence
// (weighted by severity) and excludes agents below a threshold. Honest
// rounds slowly regenerate reputation toward 1, so one-off suspicions
// (e.g. statistical flags) wash out while repeat offenders fall. Its
// ledger holds each agent's score.
type Reputation struct {
	ledger
	decay     float64 // per-unit-severity multiplicative decay, e.g. 0.5
	threshold float64
	regen     float64 // additive per honest round, e.g. 0.01
}

var _ Scheme = (*Reputation)(nil)

// NewReputation creates the scheme. Sensible defaults are substituted for
// out-of-range parameters: decay 0.5, threshold 0.2, regen 0.01.
func NewReputation(n int, decay, threshold, regen float64) *Reputation {
	if decay <= 0 || decay >= 1 {
		decay = 0.5
	}
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.2
	}
	if regen < 0 || regen >= 1 {
		regen = 0.01
	}
	return &Reputation{ledger: newLedger(2, n, 1), decay: decay, threshold: threshold, regen: regen}
}

// Name implements Scheme.
func (r *Reputation) Name() string { return "reputation" }

// Punish implements Scheme.
func (r *Reputation) Punish(agent, _ int, severity float64) error {
	if err := r.check(agent); err != nil {
		return err
	}
	// Severity 1 → full decay; severity 0.5 → half-way (geometric
	// interpolation keeps repeated small offences compounding).
	r.values[agent] *= 1 - (1-r.decay)*severity
	return nil
}

// Credit rewards an honest round, regenerating reputation toward 1.
// Excluded agents do not regenerate.
func (r *Reputation) Credit(agent int) {
	if r.has(agent) && !r.Excluded(agent) {
		r.values[agent] = min(1, r.values[agent]+r.regen)
	}
}

// Excluded implements Scheme.
func (r *Reputation) Excluded(agent int) bool {
	return r.has(agent) && r.values[agent] < r.threshold
}

// Standing implements Scheme.
func (r *Reputation) Standing(agent int) float64 {
	if !r.has(agent) {
		return 0
	}
	return r.values[agent]
}

// Fresh implements Scheme.
func (r *Reputation) Fresh() Scheme {
	return NewReputation(len(r.values), r.decay, r.threshold, r.regen)
}

// --- Deposit -------------------------------------------------------------------

// Deposit holds a real-money escrow per agent; offences are fined
// proportionally to severity, and an empty escrow excludes the agent (the
// paper's "punishment schemes based on ... real money deposits"). Its
// ledger holds each agent's balance.
type Deposit struct {
	ledger
	escrow float64
	fine   float64
}

var _ Scheme = (*Deposit)(nil)

// NewDeposit creates the scheme with the given initial escrow and the fine
// charged per unit severity. Non-positive parameters default to escrow 3,
// fine 1.
func NewDeposit(n int, escrow, fine float64) *Deposit {
	if escrow <= 0 {
		escrow = 3
	}
	if fine <= 0 {
		fine = 1
	}
	return &Deposit{ledger: newLedger(3, n, escrow), escrow: escrow, fine: fine}
}

// Name implements Scheme.
func (d *Deposit) Name() string { return "deposit" }

// Punish implements Scheme.
func (d *Deposit) Punish(agent, _ int, severity float64) error {
	if err := d.check(agent); err != nil {
		return err
	}
	d.values[agent] -= d.fine * severity
	return nil
}

// Excluded implements Scheme.
func (d *Deposit) Excluded(agent int) bool {
	return d.has(agent) && d.values[agent] <= 0
}

// Standing implements Scheme.
func (d *Deposit) Standing(agent int) float64 {
	if !d.has(agent) {
		return 0
	}
	return max(0, d.values[agent])
}

// Fresh implements Scheme.
func (d *Deposit) Fresh() Scheme { return NewDeposit(len(d.values), d.escrow, d.fine) }
