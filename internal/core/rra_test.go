package core

import (
	"errors"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
	"gameauthority/internal/stats"
)

func TestNewRRASupervisedValidation(t *testing.T) {
	if _, err := NewRRASupervised(4, 2, 1, nil, true); !errors.Is(err, ErrConfig) {
		t.Fatalf("supervision without scheme: %v", err)
	}
	if _, err := NewRRASupervised(0, 2, 1, nil, false); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad n: %v", err)
	}
	if _, err := NewRRASupervised(4, 2, 1, punish.NewDisconnect(4, 0), true); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRRASupervisedHonestNoFouls(t *testing.T) {
	sess, h := newRRA(t, 6, 3, 11, punish.NewDisconnect(6, 0))
	for _, fouls := range foulsByPlay(t, sess, 300) {
		if len(fouls) != 0 {
			t.Fatalf("honest RRA produced fouls: %+v", fouls)
		}
	}
	// Theorem 5 shape: ratio near 1 by k=300.
	r, err := stats.MultiRoundAnarchyCost(float64(h.RRA().MaxLoad()), game.OptMaxLoad(6, 3, 300))
	if err != nil {
		t.Fatal(err)
	}
	if bound := stats.Theorem5Bound(3, 300) + 0.05; r > bound {
		t.Fatalf("R(300) = %v exceeds bound %v", r, bound)
	}
}

func TestRRASupervisedCatchesHog(t *testing.T) {
	sess, h := newRRA(t, 4, 4, 12, punish.NewDisconnect(4, 0))
	h.SetByzantine(0, game.HogChooser())
	var fouls []audit.Foul
	for _, play := range foulsByPlay(t, sess, 50) {
		fouls = append(fouls, play...)
	}
	if !h.Excluded(0) {
		t.Fatal("hog never excluded")
	}
	if len(fouls) == 0 || fouls[0].Agent != 0 {
		t.Fatalf("fouls = %+v", fouls)
	}
	// After exclusion the executive plays for the hog: spread returns to
	// the Lemma 6 regime.
	runRounds(t, sess, 300)
	if got, bound := h.RRA().Spread(), int64(2*4-1)+1; got > bound {
		t.Fatalf("post-exclusion spread %d exceeds %d", got, bound)
	}
}

func TestRRAUnsupervisedHogInflatesAnarchyCost(t *testing.T) {
	// The bin-camping attack only bites when b > n: with spare bins the
	// optimum max load nk/b falls below the camper's bin growth (1 per
	// round), so M(k) ≈ k ≈ (b/n)·OPT. With b ≤ n honest water-filling
	// absorbs the imbalance entirely — which the supervised case also
	// demonstrates.
	const (
		n = 4
		b = 8
		k = 400
	)
	run := func(supervise bool) float64 {
		var scheme punish.Scheme
		if supervise {
			scheme = punish.NewDisconnect(n, 0)
		}
		sess, h := newRRA(t, n, b, 13, scheme)
		h.SetByzantine(0, game.FixedChooser(0))
		runRounds(t, sess, k)
		r, err := stats.MultiRoundAnarchyCost(float64(h.RRA().MaxLoad()), game.OptMaxLoad(n, b, k))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	unsupervised := run(false)
	supervised := run(true)
	// Unsupervised: the camper owns bin 0 (k demands) while OPT is nk/b =
	// k/2, so R ≈ 2.
	if unsupervised < 1.5 {
		t.Fatalf("unsupervised R(k) = %v, expected ≈ 2 under camping", unsupervised)
	}
	if supervised >= unsupervised {
		t.Fatalf("supervision did not reduce anarchy cost: %v vs %v", supervised, unsupervised)
	}
	if supervised > stats.Theorem5Bound(b, k)+0.1 {
		t.Fatalf("supervised R(k) = %v above Theorem 5 bound %v", supervised, stats.Theorem5Bound(b, k))
	}
}

func TestRRAByzantineAccidentallyHonestNotPunished(t *testing.T) {
	// A "Byzantine" whose choices happen to match its committed stream is
	// indistinguishable from honest and must not be punished (the audit
	// judges actions, not identities).
	sess, h := newRRA(t, 3, 2, 14, punish.NewDisconnect(3, 0))
	// Mirror the honest computation exactly.
	h.SetByzantine(2, func(agent int, loads []int64) int {
		a, err := h.ExpectedChoice(agent)
		if err != nil {
			return 0
		}
		return a
	})
	runRounds(t, sess, 100)
	if h.Excluded(2) {
		t.Fatal("stream-faithful agent was punished")
	}
}
