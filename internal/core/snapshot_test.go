package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// snapshotConfigs builds one SessionConfig per driver (fresh on every
// call, so schemes and deviants never leak between twin sessions).
func snapshotConfigs(t *testing.T) map[string]func() SessionConfig {
	t.Helper()
	pg, err := game.PublicGoods(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(g game.Game) func(int, game.Profile) game.MixedProfile {
		mp := make(game.MixedProfile, g.NumPlayers())
		for i := range mp {
			mp[i] = game.Uniform(g.NumActions(i))
		}
		return func(int, game.Profile) game.MixedProfile { return mp }
	}
	return map[string]func() SessionConfig{
		"pure": func() SessionConfig {
			return SessionConfig{
				Game:   game.PrisonersDilemma(),
				Seed:   11,
				Scheme: punish.NewDisconnect(2, 0),
			}
		},
		"pure-bounded": func() SessionConfig {
			return SessionConfig{
				Game:         game.PrisonersDilemma(),
				Seed:         11,
				Scheme:       punish.NewDisconnect(2, 0),
				HistoryLimit: 3,
			}
		},
		"mixed": func() SessionConfig {
			g := game.MatchingPennies()
			return SessionConfig{
				Game:       g,
				Seed:       7,
				Strategies: uniform(g),
				Scheme:     punish.NewDisconnect(2, 0),
			}
		},
		"rra": func() SessionConfig {
			return SessionConfig{
				Seed:         5,
				RRAAgents:    6,
				RRAResources: 3,
				Scheme:       punish.NewDisconnect(6, 0),
			}
		},
		"distributed": func() SessionConfig {
			return SessionConfig{
				Game:       pg,
				Seed:       3,
				DistProcs:  4,
				DistFaults: 1,
			}
		},
	}
}

// TestSnapshotRestoreByteIdentical: for every driver, Snapshot → Restore →
// Play^k must equal uninterrupted Play^(j+k), transcript line for
// transcript line and digest for digest.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	ctx := context.Background()
	const j, k = 4, 3
	for name, build := range snapshotConfigs(t) {
		t.Run(name, func(t *testing.T) {
			orig, err := NewSession(build())
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			hashes := make(map[int]string)
			for i := 0; i < j; i++ {
				res, err := orig.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				hashes[res.Round] = HashResult(res)
			}
			snap := orig.Snapshot()
			if snap.Rounds != j {
				t.Fatalf("snapshot rounds %d, want %d", snap.Rounds, j)
			}

			restored, err := Restore(ctx, build(), RestoreTarget{
				Rounds: snap.Rounds,
				Digest: snap.Digest,
				Hashes: hashes,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if got := restored.Snapshot(); got.Digest != snap.Digest {
				t.Fatalf("restored digest %s, want %s", got.Digest, snap.Digest)
			}

			// The futures must coincide play-for-play.
			for i := 0; i < k; i++ {
				want, err := orig.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.Play(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wl := string(appendResultLine(nil, &want))
				gl := string(appendResultLine(nil, &got))
				if wl != gl {
					t.Fatalf("future play %d diverged:\n original: %s restored: %s", i, wl, gl)
				}
			}
			if w, g := orig.Snapshot().Digest, restored.Snapshot().Digest; w != g {
				t.Fatalf("final digests diverged: %s vs %s", w, g)
			}
		})
	}
}

// TestSnapshotZeroRounds: a never-played session snapshots and restores.
func TestSnapshotZeroRounds(t *testing.T) {
	ctx := context.Background()
	for name, build := range snapshotConfigs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(build())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			snap := s.Snapshot()
			if snap.Rounds != 0 {
				t.Fatalf("rounds %d, want 0", snap.Rounds)
			}
			restored, err := Restore(ctx, build(), RestoreTarget{Digest: snap.Digest})
			if err != nil {
				t.Fatal(err)
			}
			restored.Close()
		})
	}
}

// TestRestoreClosed: restoring a closed session reproduces close-time
// state (the batched-audit trailing epoch) and leaves the session closed.
func TestRestoreClosed(t *testing.T) {
	ctx := context.Background()
	g := game.MatchingPennies()
	build := func() SessionConfig {
		mp := game.MixedProfile{game.Uniform(2), game.Uniform(2)}
		return SessionConfig{
			Game:        g,
			Seed:        9,
			Strategies:  func(int, game.Profile) game.MixedProfile { return mp },
			MixedAgents: []*MixedAgent{{Withhold: func(int) bool { return true }}, nil},
			Scheme:      punish.NewDisconnect(2, 0),
			Mode:        AuditBatched,
			EpochLen:    8,
		}
	}
	orig, err := NewSession(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // partial epoch: 3 of 8
		if _, err := orig.Play(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Close(); err != nil {
		t.Fatal(err)
	}
	snap := orig.Snapshot()
	if !snap.Closed || snap.Fouls == 0 {
		t.Fatalf("close-time snapshot missing trailing-epoch audit: %+v", snap)
	}
	restored, err := Restore(ctx, build(), RestoreTarget{
		Rounds: snap.Rounds,
		Closed: true,
		Digest: snap.Digest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Play(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("restored-closed session still plays: %v", err)
	}
	if got := restored.Snapshot(); !got.Closed || got.Fouls != snap.Fouls {
		t.Fatalf("restored close state %+v, want %+v", got, snap)
	}
}

// TestRestoreDetectsDivergence: a wrong seed must fail both the play-hash
// check and the digest check with ErrRestore.
func TestRestoreDetectsDivergence(t *testing.T) {
	ctx := context.Background()
	build := snapshotConfigs(t)["rra"]
	orig, err := NewSession(build())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	hashes := make(map[int]string)
	for i := 0; i < 4; i++ {
		res, err := orig.Play(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hashes[res.Round] = HashResult(res)
	}
	snap := orig.Snapshot()

	wrong := build()
	wrong.Seed++
	if _, err := Restore(ctx, wrong, RestoreTarget{Rounds: snap.Rounds, Hashes: hashes}); !errors.Is(err, ErrRestore) {
		t.Fatalf("hash check: err = %v, want ErrRestore", err)
	}
	if _, err := Restore(ctx, wrong, RestoreTarget{Rounds: snap.Rounds, Digest: snap.Digest}); !errors.Is(err, ErrRestore) {
		t.Fatalf("digest check: err = %v, want ErrRestore", err)
	}
}

// TestSnapshotMidPunishment: snapshot taken while an agent is excluded
// restores the punishment-scheme state (no crash amnesty).
func TestSnapshotMidPunishment(t *testing.T) {
	ctx := context.Background()
	build := func() SessionConfig {
		return SessionConfig{
			Game: game.PrisonersDilemma(),
			Seed: 2,
			Agents: []*Agent{
				{Choose: func(int, game.Profile) int { return 0 }, Withhold: func(round int) bool { return round == 1 }},
				nil,
			},
			Scheme: punish.NewDisconnect(2, 0),
		}
	}
	orig, err := NewSession(build())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 3; i++ {
		if _, err := orig.Play(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot()
	if snap.Convictions == 0 || !snap.Excluded[0] {
		t.Fatalf("withholding agent not excluded at snapshot: %+v", snap)
	}
	restored, err := Restore(ctx, build(), RestoreTarget{Rounds: snap.Rounds, Digest: snap.Digest})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	st := restored.Stats()
	if !st.Excluded[0] || st.Convictions != snap.Convictions {
		t.Fatalf("crash amnesty: restored exclusion state %+v, snapshot %+v", st, snap)
	}
}

// TestHashResultStable pins that the canonical line renders nil and empty
// slices identically (ring slots reuse capacity; fresh results are nil).
func TestHashResultStable(t *testing.T) {
	a := RoundResult{Round: 1, Outcome: game.Profile{1, 0}, Costs: []float64{1, 2}}
	b := RoundResult{Round: 1, Outcome: game.Profile{1, 0}, Costs: []float64{1, 2},
		Convicted: []int{}, Excluded: []int{}}
	if HashResult(a) != HashResult(b) {
		t.Fatalf("nil/empty slice shapes hash differently:\n%s\n%s",
			appendResultLine(nil, &a), appendResultLine(nil, &b))
	}
	c := a
	c.Costs = []float64{1, 3}
	if HashResult(a) == HashResult(c) {
		t.Fatal("cost change did not change the hash")
	}
	// AppendHashResult appends exactly HashResult's digits, so hashes
	// packed back to back split into the plays' own.
	packed := AppendHashResult([]byte("x"), &a)
	packed = AppendHashResult(packed, &c)
	if want := "x" + HashResult(a) + HashResult(c); string(packed) != want || len(want) != 1+2*HashLen {
		t.Fatalf("AppendHashResult packed %q, want %q", packed, want)
	}
}

// TestResultLineCanonicalShape pins the transcript line's byte shape to
// the fmt rendering it originally used. Digests persisted in snapshots on
// disk were computed over these bytes, so any drift here silently breaks
// recovery of existing stores.
func TestResultLineCanonicalShape(t *testing.T) {
	cases := []RoundResult{
		{},
		{Round: 7, Outcome: game.Profile{1, 0, 2}, Costs: []float64{1.5, -0.25, 3}},
		{Round: 42, Outcome: game.Profile{0, 1}, Convicted: []int{1}, Excluded: []int{0, 1},
			Pulse: 9, Costs: []float64{0.1, 2e-8},
			Verdict: audit.Verdict{Fouls: []audit.Foul{
				{Agent: 1, Reason: audit.ReasonCommitMismatch},
				{Agent: 0, Reason: audit.Reason(99)},
			}}},
	}
	for _, res := range cases {
		want := fmt.Sprintf("round=%d outcome=%v convicted=%v excluded=%v pulse=%d costs=[",
			res.Round, res.Outcome, res.Convicted, res.Excluded, res.Pulse)
		for i, c := range res.Costs {
			if i > 0 {
				want += " "
			}
			want += strconv.FormatFloat(c, 'g', -1, 64)
		}
		want += "] fouls=["
		for i, f := range res.Verdict.Fouls {
			if i > 0 {
				want += " "
			}
			want += fmt.Sprintf("%d:%s", f.Agent, f.Reason)
		}
		want += "]\n"
		if got := string(appendResultLine(nil, &res)); got != want {
			t.Fatalf("canonical line drifted:\n got: %q\nwant: %q", got, want)
		}
	}
}

// TestRestoreRejectsNegativeTarget pins input validation.
func TestRestoreRejectsNegativeTarget(t *testing.T) {
	_, err := Restore(context.Background(), SessionConfig{Game: game.PrisonersDilemma()},
		RestoreTarget{Rounds: -1})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

// TestSnapshotDigestCoversHistory: two sessions with equal counters but
// different retained plays must digest differently.
func TestSnapshotDigestCoversHistory(t *testing.T) {
	ctx := context.Background()
	mk := func(seed uint64) Session {
		s, err := NewSession(SessionConfig{Game: game.MatchingPennies(), Seed: seed,
			Strategies: func(int, game.Profile) game.MixedProfile {
				return game.MixedProfile{game.Uniform(2), game.Uniform(2)}
			}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 4; i++ {
		if _, err := a.Play(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Play(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Rounds != sb.Rounds {
		t.Fatalf("rounds %d vs %d", sa.Rounds, sb.Rounds)
	}
	if sa.Digest == sb.Digest {
		// Sanity: outcome sequences of different seeds should differ.
		t.Fatalf("different seeds digested identically: %s", sa.Digest)
	}
}

// TestSnapshotBoundedRingEviction: the digest covers only retained plays,
// so a bounded twin restored from a snapshot past eviction still matches.
func TestSnapshotBoundedRingEviction(t *testing.T) {
	ctx := context.Background()
	build := snapshotConfigs(t)["pure-bounded"]
	orig, err := NewSession(build())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 10; i++ { // well past the limit of 3
		if _, err := orig.Play(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot()
	if len(orig.Results()) != 3 {
		t.Fatalf("ring retained %d, want 3", len(orig.Results()))
	}
	restored, err := Restore(ctx, build(), RestoreTarget{Rounds: snap.Rounds, Digest: snap.Digest})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	want := fmt.Sprintf("%v", orig.Results())
	got := fmt.Sprintf("%v", restored.Results())
	if want != got {
		t.Fatalf("retained rings diverged:\n%s\n%s", want, got)
	}
}

// strikeScheme is a punishment scheme internal/punish does not implement,
// so it has no ledger encoding: its strikes exclude an agent at 2.
type strikeScheme struct{ strikes []float64 }

func (s *strikeScheme) Name() string { return "strikes" }

func (s *strikeScheme) Punish(agent, _ int, severity float64) error {
	s.strikes[agent] += severity
	return nil
}

func (s *strikeScheme) Excluded(agent int) bool    { return s.strikes[agent] >= 2 }
func (s *strikeScheme) Standing(agent int) float64 { return max(0, 2-s.strikes[agent]) }

func (s *strikeScheme) Fresh() punish.Scheme {
	return &strikeScheme{strikes: make([]float64, len(s.strikes))}
}

// wrappedScheme embeds a built-in scheme. What a wrapper keeps besides is
// not in the scheme's ledger, so it has no ledger encoding either.
type wrappedScheme struct{ punish.Scheme }

// noLedger names the stateConfigs rows whose scheme has no ledger
// encoding: they snapshot no state and restore by replay.
var noLedger = map[string]bool{"pure-cheat-own-scheme": true, "pure-cheat-wrapped-scheme": true}

// stateConfigs adds, to snapshotConfigs, sessions whose state carries
// more than an honest play leaves: a cheat convicted under each scheme
// and an RRA hog under a deposit, all of bounded history (an unbounded
// one carries no state, like snapshotConfigs' "pure"); and the noLedger
// rows, a cheat under a scheme of its own and under a wrapped one.
func stateConfigs(t *testing.T) map[string]func() SessionConfig {
	cfgs := snapshotConfigs(t)
	cheat := func(limit int, scheme func() punish.Scheme) func() SessionConfig {
		return func() SessionConfig {
			g := game.PrisonersDilemma()
			return SessionConfig{Game: g, Seed: 13, Scheme: scheme(), HistoryLimit: limit,
				Agents: []*Agent{nil, {Choose: HonestPure(g, 1).Choose, TamperOpening: func(_ int, op commit.Opening) commit.Opening {
					a, _ := audit.DecodeAction(op.Value)
					op.Value = audit.EncodeAction(1 - a)
					return op
				}}}}
		}
	}
	cfgs["pure-cheat-disconnect"] = cheat(2, func() punish.Scheme { return punish.NewDisconnect(2, 2) })
	cfgs["pure-cheat-reputation"] = cheat(4, func() punish.Scheme { return punish.NewReputation(2, 0.8, 0.3, 0) })
	cfgs["pure-cheat-deposit"] = cheat(5, func() punish.Scheme { return punish.NewDeposit(2, 2.5, 1) })
	cfgs["pure-cheat-own-scheme"] = cheat(3, func() punish.Scheme { return &strikeScheme{strikes: make([]float64, 2)} })
	cfgs["pure-cheat-wrapped-scheme"] = cheat(3, func() punish.Scheme {
		return wrappedScheme{punish.NewReputation(2, 0.8, 0.3, 0)}
	})
	cfgs["rra-hog-deposit"] = func() SessionConfig {
		return SessionConfig{Seed: 8, RRAAgents: 5, RRAResources: 3, Scheme: punish.NewDeposit(5, 2, 1), HistoryLimit: 6,
			RRAByz: map[int]func(int, []int64) int{4: game.HogChooser()}}
	}
	return cfgs
}

// TestRestoreFromState snapshots every configuration at several rounds,
// restores it from the payload's state plus a tail of hash-checked plays,
// overwrites the payload, and holds the result to an uninterrupted twin:
// the same retained plays (foul details included), stats and digest, and
// the same futures. The
// pure and RRA kinds carry state; the mixed and distributed kinds, and a
// session whose scheme has no ledger encoding, carry none and replay from
// round zero through the same call.
func TestRestoreFromState(t *testing.T) {
	ctx := context.Background()
	const tail, future = 3, 4
	for name, build := range stateConfigs(t) {
		for _, at := range []int{0, 1, 6} {
			t.Run(fmt.Sprintf("%s/at%d", name, at), func(t *testing.T) {
				orig, err := NewSession(build())
				if err != nil {
					t.Fatal(err)
				}
				defer orig.Close()
				if _, err := orig.Run(ctx, at); at > 0 && err != nil {
					t.Fatal(err)
				}
				payload, rounds := AppendSnapshot(nil, orig)
				snap, state, err := ParseSnapshot(payload)
				if err != nil || rounds != at {
					t.Fatalf("ParseSnapshot: %v (watermark %d, want %d)", err, rounds, at)
				}
				if want := orig.Snapshot(); !reflect.DeepEqual(snap, want) {
					t.Fatalf("parsed snapshot %+v, want %+v", snap, want)
				}
				kind, limit := orig.Stats().Kind, build().HistoryLimit
				if stateful := (kind == KindPure || kind == KindRRA) && limit > 0 && !noLedger[name]; stateful != (len(state) > 0) {
					t.Fatalf("%s session of history limit %d under %s carries %d state bytes", kind, limit, build().Scheme.Name(), len(state))
				}
				hashes := map[int]string{}
				if _, err := orig.PlayN(ctx, tail, func(res RoundResult) error {
					hashes[res.Round] = HashResult(res)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(ctx, build(), RestoreTarget{Rounds: at + tail, Hashes: hashes,
					State: state, Base: snap})
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				// The restored session must share no memory with the payload
				// (a store hands out sub-slices of its file buffer).
				for i := range payload {
					payload[i] = 0xFF
				}
				for i := 0; i <= future; i++ {
					if !reflect.DeepEqual(restored.Results(), orig.Results()) {
						t.Fatalf("after %d future plays: retained plays\n%+v\nwant\n%+v", i, restored.Results(), orig.Results())
					}
					if !reflect.DeepEqual(restored.Stats(), orig.Stats()) || restored.Snapshot().Digest != orig.Snapshot().Digest {
						t.Fatalf("after %d future plays: stats %+v, want %+v", i, restored.Stats(), orig.Stats())
					}
					if i < future {
						want, err := orig.Play(ctx)
						if err != nil {
							t.Fatal(err)
						}
						got, err := restored.Play(ctx)
						if err != nil || HashResult(got) != HashResult(want) {
							t.Fatalf("future play %d: %v\n%s want\n%s", i, err, appendResultLine(nil, &got), appendResultLine(nil, &want))
						}
					}
				}
			})
		}
	}
}

// TestRestoreRefusesBadState: a state loaded with a snapshot whose
// digest, counters, costs or kind it does not reproduce, one cut short,
// and one with bytes after it are each ErrRestore, and ParseSnapshot refuses a payload cut inside its counters
// or digest, and a JSON payload.
func TestRestoreRefusesBadState(t *testing.T) {
	ctx := context.Background()
	build := stateConfigs(t)["pure-cheat-deposit"]
	orig, err := NewSession(build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Run(ctx, 7); err != nil {
		t.Fatal(err)
	}
	payload, _ := AppendSnapshot(nil, orig)
	snap, state, err := ParseSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := AppendSnapshot(nil, mustRun(t, build(), 6))
	otherSnap, _, _ := ParseSnapshot(other)
	with := func(edit func(*SessionSnapshot)) SessionSnapshot {
		base := snap
		base.CumulativeCost = append([]float64(nil), snap.CumulativeCost...)
		edit(&base)
		return base
	}
	for name, target := range map[string]RestoreTarget{
		"other digest": {Rounds: 7, State: state, Base: with(func(b *SessionSnapshot) { b.Digest = otherSnap.Digest })},
		"other fouls":  {Rounds: 7, State: state, Base: with(func(b *SessionSnapshot) { b.Fouls++ })},
		"other costs":  {Rounds: 7, State: state, Base: with(func(b *SessionSnapshot) { b.CumulativeCost[0]++ })},
		"other kind":   {Rounds: 7, State: state, Base: with(func(b *SessionSnapshot) { b.Kind = KindRRA })},
		"cut short":    {Rounds: 7, State: state[:len(state)-1], Base: snap},
		"bytes after":  {Rounds: 7, State: append(append([]byte(nil), state...), 0), Base: snap},
	} {
		if _, err := Restore(ctx, build(), target); !errors.Is(err, ErrRestore) {
			t.Errorf("%s: err = %v, want ErrRestore", name, err)
		}
	}
	// The counters and digest delimit themselves; the state is the rest,
	// and a state cut short is Restore's to refuse (above).
	for i := range len(payload) - len(state) {
		if _, _, err := ParseSnapshot(payload[:i]); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("a %d-byte prefix of the payload: err = %v, want ErrSnapshot", i, err)
		}
	}
	if _, _, err := ParseSnapshot([]byte(`{"kind":1,"rounds":7}`)); !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("a JSON payload: err = %v, want ErrSnapshot naming JSON", err)
	}
}

// TestDigestAllocatesNothing pins the state digest, the path behind a
// host's compaction and a loaded state's check, at zero allocations.
func TestDigestAllocatesNothing(t *testing.T) {
	s := mustRun(t, stateConfigs(t)["pure-cheat-reputation"](), 9)
	d := s.(*driver)
	if allocs := testing.AllocsPerRun(50, func() { _ = d.digestLocked() }); allocs != 0 {
		t.Fatalf("the state digest allocates %v times, want 0", allocs)
	}
}

// mustRun builds a session and plays it rounds times.
func mustRun(t *testing.T, cfg SessionConfig, rounds int) Session {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	return s
}
