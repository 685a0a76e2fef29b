package gameauthority_test

import (
	"context"
	"reflect"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/core"
	"gameauthority/internal/invariant"
)

// FuzzSnapshotState holds restore-from-state to the replay from round zero
// it replaced. Each input takes one invariant.Mix scenario, with a seed, a
// history limit, one of the three schemes and optionally a catalog
// deviant, to a random round; snapshots it on a Mem store; plays a short
// WAL tail; and restores it on a fresh authority, which loads the
// snapshot's state and replays the tail. The restored session must hold
// the same Stats(), retained plays and digest as a twin played from round
// zero, and its next plays must hash like the twin's. The pure and RRA
// scenarios of bounded history must carry state; the unbounded ones and
// the mixed and distributed ones carry none and go through the same loop
// by replay.
func FuzzSnapshotState(f *testing.F) {
	mix := invariant.Mix()
	for i := range mix {
		f.Add(uint8(i), uint64(i+1), uint16(5+7*i), uint8(3*i), uint8(i))
	}
	schemes := []string{"disconnect", "reputation", "deposit"}
	deviants := ga.DeviantStrategies()
	limits := []int{0, 1, 3, 8}
	const future = 8
	f.Fuzz(func(t *testing.T, scenario uint8, seed uint64, rounds uint16, shape, deviant uint8) {
		ctx := context.Background()
		sc := mix[int(scenario)%len(mix)]
		spec := sc.Spec
		spec.ID, spec.Seed = "fuzz", seed
		spec.HistoryLimit = limits[shape%4]
		spec.Punishment = &ga.PunishmentSpec{Scheme: schemes[int(shape/4)%3]}
		if d := int(deviant) % (len(deviants) + 1); d < len(deviants) {
			spec.Deviant = &ga.DeviantSpec{Player: int(deviant/64) % 2, Strategy: deviants[d].Name()}
		}
		at, tail := int(rounds)%200, int(shape/16)%5
		if sc.Driver == "distributed" {
			at %= 24
		}

		st := ga.NewMemStore()
		first := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(0))
		defer first.Close()
		h, err := first.CreateFromSpec(spec)
		if err != nil {
			t.Skipf("spec does not build: %v", err)
		}
		if _, err := h.Run(ctx, at); err != nil {
			t.Fatal(err)
		}
		if _, persisted, err := first.SnapshotSession(spec.ID); err != nil || !persisted {
			t.Fatalf("snapshot: persisted %v, %v", persisted, err)
		}
		if _, err := h.Run(ctx, tail); err != nil {
			t.Fatal(err)
		}
		first.DetachStore()
		journal, _, err := st.LoadSession(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, state, err := core.ParseSnapshot(journal.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if stateful := (sc.Driver == "pure" || sc.Driver == "rra") && spec.HistoryLimit > 0; stateful != (len(state) > 0) {
			t.Fatalf("a %s session of history limit %d: its snapshot carries %d state bytes", sc.Driver, spec.HistoryLimit, len(state))
		}

		second := ga.NewAuthority(ga.WithStore(st))
		defer second.Close()
		restored, err := second.GetOrRecover(ctx, spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := invariant.Twin(ctx, spec, at+tail)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		if got, want := restored.Stats(), twin.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored at %d+%d: stats\n%+v\nwant\n%+v", at, tail, got, want)
		}
		if got, want := restored.Results(), twin.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored at %d+%d: retained plays\n%+v\nwant\n%+v", at, tail, got, want)
		}
		if got, want := restored.Snapshot().Digest, twin.Snapshot().Digest; got != want {
			t.Fatalf("restored at %d+%d: digest %.12s, want %.12s", at, tail, got, want)
		}
		for k := 0; k < future; k++ {
			want, err := twin.Play(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Play(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := core.HashResult(got), core.HashResult(want); g != w {
				t.Fatalf("play %d after restoring at %d+%d: hash %.12s, want %.12s", got.Round, at, tail, g, w)
			}
		}
	})
}
