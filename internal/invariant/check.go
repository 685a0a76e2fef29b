package invariant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	ga "gameauthority"
	"gameauthority/internal/wire"
)

// What a failed check wraps, one sentinel per way a run can be wrong.
var (
	// ErrVerdictLost: an acknowledged result did not carry the next round
	// index — a round was skipped, or delivered twice.
	ErrVerdictLost = errors.New("invariant: verdict lost")
	// ErrRoundCount: acknowledged rounds, the server's round count and the
	// play budget are not one number.
	ErrRoundCount = errors.New("invariant: round accounting does not add up")
	// ErrTwinDiverged: the session's state is not its fault-free twin's.
	ErrTwinDiverged = errors.New("invariant: state diverged from the fault-free twin")
	// ErrUnconvicted: a visible deviant played and was not convicted.
	ErrUnconvicted = errors.New("invariant: visible deviant not convicted")
	// ErrHonestFouled: a session with no deviant reports a foul.
	ErrHonestFouled = errors.New("invariant: honest session fouled")
	// ErrRecoveryDiverged: a session did not come back from a crash at
	// the round and digest it had acknowledged.
	ErrRecoveryDiverged = errors.New("invariant: recovered state is not the acknowledged state")
	// ErrSeqRegressed: a subscription delivered an event whose Seq did not
	// exceed the one before it.
	ErrSeqRegressed = errors.New("invariant: event sequence regressed")
)

// Acks is one session's acknowledged plays, held to the zero-verdict-loss
// rule as they arrive.
type Acks struct {
	Rounds int
}

// Add books one acknowledgement: after its rounds, the last acknowledged
// round index must be exactly the count so far minus one. A retried
// request deduplicated by the server's watermark passes; a round skipped
// or played twice does not.
func (a *Acks) Add(ack Ack) error {
	a.Rounds += ack.Completed
	if ack.Completed > 0 && ack.Last != a.Rounds-1 {
		return fmt.Errorf("%w: round %d acknowledged where %d was expected", ErrVerdictLost, ack.Last, a.Rounds-1)
	}
	return nil
}

// CheckRounds holds the three round counts of a finished session to one
// number: what the client saw acknowledged, what the server says it
// played, and what the run asked for.
func CheckRounds(acked Acks, got State, budget int) error {
	if acked.Rounds != budget || got.Rounds != budget {
		return fmt.Errorf("%w: %d acknowledged, %d on the server, budget %d", ErrRoundCount, acked.Rounds, got.Rounds, budget)
	}
	return nil
}

// Twin hosts spec on a fresh store-less, fault-free authority — the same
// translation POST /sessions performs — and plays it to rounds. Close the
// twin when done with it.
func Twin(ctx context.Context, spec ga.CreateSessionRequest, rounds int) (*ga.HostedSession, error) {
	id := spec.ID
	spec.ID = "" // a throwaway host names its own
	twin, err := ga.NewAuthority().CreateFromSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("twin of %s: %w", id, err)
	}
	if _, err := twin.Run(ctx, rounds); err != nil {
		twin.Close()
		return nil, fmt.Errorf("twin of %s: %w", id, err)
	}
	return twin, nil
}

// StateOf reads a hosted session's state.
func StateOf(h *ga.HostedSession) State {
	snap := h.Snapshot()
	return State{Rounds: snap.Rounds, Fouls: snap.Fouls, Convictions: snap.Convictions, Digest: snap.Digest}
}

// CheckTwin grows spec's fault-free twin to got's round and holds got to
// its digest: whatever the run injected — faults, retries, a transport, a
// crash — is a view of the session, never an input to it.
func CheckTwin(ctx context.Context, spec ga.CreateSessionRequest, got State) error {
	twin, err := Twin(ctx, spec, got.Rounds)
	if err != nil {
		return err
	}
	defer twin.Close()
	return sameState(ErrTwinDiverged, StateOf(twin), got)
}

// CheckTwinState is CheckTwin for a twin the caller grew itself (a session
// built with options has no spec to grow one from).
func CheckTwinState(twin, got State) error { return sameState(ErrTwinDiverged, twin, got) }

// CheckRecovered holds a session recovered from the write-ahead log to
// the state it had acknowledged before the crash.
func CheckRecovered(acknowledged, recovered State) error {
	return sameState(ErrRecoveryDiverged, acknowledged, recovered)
}

func sameState(sentinel error, want, got State) error {
	if got.Rounds != want.Rounds || got.Digest != want.Digest {
		return fmt.Errorf("%w: %.12s@%d, want %.12s@%d", sentinel, got.Digest, got.Rounds, want.Digest, want.Rounds)
	}
	return nil
}

// CheckVerdict is the verdict rule: a session carrying a visible deviant
// has convicted it once it has played convictBy rounds, and a session
// carrying no deviant reports no foul and no conviction. It makes no
// claim about the payoff-level strategies (see VisibleDeviants).
func CheckVerdict(spec ga.CreateSessionRequest, got State) error {
	switch {
	case spec.Deviant == nil:
		if got.Fouls != 0 || got.Convictions != 0 {
			return fmt.Errorf("%w: %d fouls, %d convictions", ErrHonestFouled, got.Fouls, got.Convictions)
		}
	case visible(spec.Deviant.Strategy) && got.Rounds >= convictBy(spec) && got.Convictions == 0:
		return fmt.Errorf("%w: %s in slot %d after %d rounds (%d fouls)",
			ErrUnconvicted, spec.Deviant.Strategy, spec.Deviant.Player, got.Rounds, got.Fouls)
	}
	return nil
}

// convictBy is how many rounds a visible deviant can last: the first
// play's audit convicts it everywhere except on the RRA harness, where a
// withheld reveal is only fouled in a round that asks the freerider for
// one — within four, over 200 seeds (TestVisibleDeviantsConvicted).
func convictBy(spec ga.CreateSessionRequest) int {
	if spec.RRA != nil {
		return 4
	}
	return 1
}

func visible(strategy string) bool {
	for _, v := range VisibleDeviants {
		if v == strategy {
			return true
		}
	}
	return false
}

// CrashRecover kills victim the way SIGKILL would — its store is detached
// un-synced and the instance abandoned — and recovers a fresh authority,
// built from opts, out of what the store holds. Every journaled session
// must restore. Only then is the corpse closed, to free its worker pools;
// the close journals nothing because the store is already detached.
func CrashRecover(ctx context.Context, victim *ga.Authority, opts ...ga.AuthorityOption) (*ga.Authority, ga.RecoveryReport, error) {
	st := victim.DetachStore()
	if st == nil {
		return nil, ga.RecoveryReport{}, fmt.Errorf("crash: the authority has no store to recover from")
	}
	defer victim.Close()
	next := ga.NewAuthority(append(opts[:len(opts):len(opts)], ga.WithStore(st))...)
	report, err := next.Recover(ctx)
	if err == nil && len(report.Failed) > 0 {
		err = fmt.Errorf("%w: %d sessions failed to restore, first: %s", ErrRecoveryDiverged, len(report.Failed), report.Failed[0])
	}
	if err != nil {
		next.Close()
		return nil, report, err
	}
	return next, report, nil
}

// SeqWatch is the handler of one subscription whose events must arrive
// with strictly increasing Seq, across reconnects and resumes too.
type SeqWatch struct {
	last, delivered, regressions atomic.Uint64
}

// Handle is a hub.EventHandler.
func (w *SeqWatch) Handle(ev wire.Event, _ uint64) {
	if ev.Seq > 0 && ev.Seq <= w.last.Load() {
		w.regressions.Add(1)
		return
	}
	w.last.Store(ev.Seq)
	w.delivered.Add(1)
}

// Delivered is how many events arrived in order.
func (w *SeqWatch) Delivered() uint64 { return w.delivered.Load() }

func (w *SeqWatch) Check() error {
	if n := w.regressions.Load(); n > 0 {
		return fmt.Errorf("%w: %d times", ErrSeqRegressed, n)
	}
	return nil
}

// --- Driving a fleet ------------------------------------------------------------

// Create hosts every slot on tr, all at once: the fleet is N concurrent
// sessions, not N sessions in turn.
func Create(slots []*Slot, tr Transport) error {
	return each(slots, func(_ int, s *Slot) error {
		p, err := tr.Create(s.Spec)
		if err != nil {
			return fmt.Errorf("create %s: %w", s.Spec.ID, err)
		}
		s.Player = p
		return nil
	})
}

// Play advances every slot, one goroutine each, until it has acknowledged
// num/den of its play budget, in requests of batch rounds (the tail takes
// what remains; batch ≤ 1 plays single rounds). Every acknowledgement is
// booked against the zero-verdict-loss rule, then handed to observe (when
// set) on the slot's goroutine with the slot's index and the request's
// wall time.
func Play(ctx context.Context, slots []*Slot, batch, num, den int, observe func(k int, ack Ack, took time.Duration)) error {
	return each(slots, func(k int, s *Slot) error {
		for target := s.Plays * num / den; s.Acked.Rounds < target; {
			n := min(max(batch, 1), target-s.Acked.Rounds)
			t0 := time.Now()
			ack, err := s.Player.Play(ctx, n)
			took := time.Since(t0)
			if err == nil && ack.Completed == 0 {
				err = errors.New("acknowledged with no round completed")
			}
			if err == nil {
				err = s.Acked.Add(ack)
			}
			if err != nil {
				return fmt.Errorf("play %s: %w", s.Spec.ID, err)
			}
			if observe != nil {
				observe(k, ack, took)
			}
		}
		return nil
	})
}

// Audit holds every played slot to the per-session invariants: round
// accounting, the fault-free twin's digest, and the verdict rule.
func Audit(ctx context.Context, slots []*Slot) error {
	return each(slots, func(_ int, s *Slot) error {
		got, err := s.Player.State()
		if err == nil {
			err = errors.Join(CheckRounds(s.Acked, got, s.Plays), CheckVerdict(s.Spec, got))
		}
		if err == nil {
			err = CheckTwin(ctx, s.Spec, got)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.Spec.ID, err)
		}
		return nil
	})
}

// each runs fn on every slot concurrently and joins what failed.
func each(slots []*Slot, fn func(k int, s *Slot) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(slots))
	for k, s := range slots {
		wg.Add(1)
		go func(k int, s *Slot) {
			defer wg.Done()
			errs[k] = fn(k, s)
		}(k, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
