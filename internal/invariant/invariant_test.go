package invariant

import (
	"context"
	"errors"
	"reflect"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/wire"
)

// TestChecksFailOnDoctoredInput: a check that cannot fail checks nothing.
// Each of the five is fed the real thing, which must pass, and then the
// same thing doctored one way, which must fail with the named sentinel.
func TestChecksFailOnDoctoredInput(t *testing.T) {
	ctx := context.Background()
	// The mixed driver's committed randomness makes the digest depend on
	// the seed; an honest pure session plays the same rounds on any.
	var honest ga.CreateSessionRequest
	for _, sc := range Mix() {
		if sc.Driver == "mixed" {
			honest = sc.Spec
		}
	}
	honest.ID, honest.Seed = "doctored", 7
	deviant := honest
	deviant.Deviant = &ga.DeviantSpec{Player: 0, Strategy: VisibleDeviants[0]}
	deviant.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}

	const rounds = 5
	grow := func(spec ga.CreateSessionRequest) State {
		twin, err := Twin(ctx, spec, rounds)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		return StateOf(twin)
	}
	played, convicted := grow(honest), grow(deviant)

	acks := func(stream ...Ack) error {
		var a Acks
		for _, ack := range stream {
			if err := a.Add(ack); err != nil {
				return err
			}
		}
		return nil
	}
	seq := func(seqs ...uint64) error {
		var w SeqWatch
		for _, s := range seqs {
			w.Handle(wire.Event{Seq: s}, 0)
		}
		return w.Check()
	}
	seedPlusOne, oneShort := honest, played
	seedPlusOne.Seed++
	oneShort.Rounds--
	unconvicted, fouled := convicted, played
	unconvicted.Convictions = 0
	fouled.Fouls = 1

	for _, tc := range []struct {
		name string
		err  error
		want error // nil: the undoctored input, which must pass
	}{
		{"rounds: in order, a batch, a deduplicated retry", acks(Ack{1, 0}, Ack{3, 3}, Ack{0, 3}, Ack{1, 4}), nil},
		{"rounds: one skipped", acks(Ack{1, 0}, Ack{1, 2}), ErrVerdictLost},
		{"rounds: one repeated", acks(Ack{1, 0}, Ack{1, 0}), ErrVerdictLost},
		{"rounds: all three counts agree", CheckRounds(Acks{rounds}, played, rounds), nil},
		{"rounds: the server one short of the budget", CheckRounds(Acks{rounds}, oneShort, rounds), ErrRoundCount},
		{"rounds: an acknowledgement missing", CheckRounds(Acks{rounds - 1}, played, rounds), ErrRoundCount},

		{"twin: same spec", CheckTwin(ctx, honest, played), nil},
		{"twin: built with seed + 1", CheckTwin(ctx, seedPlusOne, played), ErrTwinDiverged},

		{"verdict: honest and clean", CheckVerdict(honest, played), nil},
		{"verdict: deviant and convicted", CheckVerdict(deviant, convicted), nil},
		{"verdict: deviant with zero convictions", CheckVerdict(deviant, unconvicted), ErrUnconvicted},
		{"verdict: honest with one foul", CheckVerdict(honest, fouled), ErrHonestFouled},

		{"recovery: back at the acknowledged state", CheckRecovered(played, played), nil},
		{"recovery: one round short", CheckRecovered(played, oneShort), ErrRecoveryDiverged},

		{"seq: strictly increasing across a gap", seq(1, 2, 5, 6), nil},
		{"seq: regressed after a resume", seq(1, 2, 3, 2), ErrSeqRegressed},
		{"seq: repeated", seq(1, 2, 2), ErrSeqRegressed},
	} {
		if !errors.Is(tc.err, tc.want) || (tc.want == nil && tc.err != nil) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.err, tc.want)
		}
	}
	if convicted.Convictions == 0 {
		t.Fatalf("the deviant twin was not convicted in %d rounds: %+v", rounds, convicted)
	}
}

// TestVisibleDeviantsConvicted is the measurement the verdict rule rests
// on: on every scenario of the mix, each visible strategy in slot 0 is
// convicted within convictBy plays, on every seed tried, and the same
// session without the deviant reports no foul.
func TestVisibleDeviantsConvicted(t *testing.T) {
	ctx := context.Background()
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	mix := Mix()
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, deviants := range []float64{0, 1} {
			for _, strategy := range VisibleDeviants {
				slots, err := Fleet(mix, len(mix), 4, seed*100, deviants, []string{strategy})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range slots {
					twin, err := Twin(ctx, s.Spec, convictBy(s.Spec))
					if err != nil {
						t.Fatal(err)
					}
					if err := CheckVerdict(s.Spec, StateOf(twin)); err != nil {
						t.Errorf("%s seed %d: %v", s.Spec.ID, s.Spec.Seed, err)
					}
					twin.Close()
				}
			}
		}
	}
}

func TestFleet(t *testing.T) {
	mix := Mix()
	a, err := Fleet(mix, 64, 8, 1, 0.25, VisibleDeviants)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Fleet(mix, 64, 8, 1, 0.25, VisibleDeviants)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same arguments built two different fleets")
	}
	deviants, strategies := 0, map[string]int{}
	for k, s := range a {
		sc := mix[s.Scenario]
		if s.Spec.Seed != 1+uint64(k) || s.Spec.HistoryLimit != HistoryLimit || s.Spec.ID == "" {
			t.Fatalf("slot %d: spec %+v", k, s.Spec)
		}
		if want := max(8/max(sc.PlaysDiv, 1), 1); s.Plays != want {
			t.Errorf("%s plays %d rounds, want %d", s.Spec.ID, s.Plays, want)
		}
		if s.Spec.Deviant == nil {
			if !reflect.DeepEqual(s.Spec.Punishment, sc.Spec.Punishment) {
				t.Errorf("%s: an honest session's punishment was rewritten", s.Spec.ID)
			}
			continue
		}
		deviants++
		strategies[s.Spec.Deviant.Strategy]++
		if sc.Driver == "pure" && s.Spec.Punishment == nil {
			t.Errorf("%s: a deviant on an unpunished scenario has no executive to convict it", s.Spec.ID)
		}
	}
	if deviants != 16 || strategies[VisibleDeviants[0]] != 8 || strategies[VisibleDeviants[1]] != 8 {
		t.Errorf("a quarter of 64 sessions: %d deviants, %v", deviants, strategies)
	}
	if _, err := Fleet(mix, len(mix)-1, 1, 1, 0, nil); err == nil {
		t.Error("a fleet smaller than its mix must be refused")
	}
}
