package gameauthority_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/core"
)

// playnScenario is one cell of the PlayN equivalence matrix: a session
// spec, a sequential warmup (so the batch can start mid-punishment and
// post-conviction, not just from round zero), and the batch size.
type playnScenario struct {
	name   string
	spec   ga.CreateSessionRequest
	warmup int
	batch  int
}

// playnScenarios sweeps every catalog game across all four drivers. Pure,
// mixed, and distributed sessions host each catalog family directly; the
// RRA driver builds its own game, so it varies size per family index
// instead. Deviants and punishment rotate through the mix so the batch
// window crosses fouls, convictions, and active punishment in several
// cells.
func playnScenarios(t *testing.T) []playnScenario {
	t.Helper()
	deviants := []string{"", "freerider", "", "commitment-cheat", ""}
	var out []playnScenario
	for i, entry := range ga.Catalog() {
		players := entry.Players(4)
		pure := ga.CreateSessionRequest{
			Game:       entry.Name,
			Players:    players,
			Seed:       uint64(100 + i),
			Punishment: &ga.PunishmentSpec{Scheme: []string{"disconnect", "reputation"}[i%2]},
		}
		if d := deviants[i%len(deviants)]; d != "" {
			pure.Deviant = &ga.DeviantSpec{Player: 0, Strategy: d}
		}
		out = append(out, playnScenario{
			name: "pure-" + entry.Name, spec: pure, warmup: 4, batch: 10,
		})

		mixed := ga.CreateSessionRequest{
			Game: entry.Name, Players: players, Kind: "mixed", Audit: "per-round",
			Seed:       uint64(200 + i),
			Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
		}
		if i%2 == 1 {
			mixed.Deviant = &ga.DeviantSpec{Player: 1, Strategy: "distribution-skewer"}
		}
		out = append(out, playnScenario{
			name: "mixed-" + entry.Name, spec: mixed, warmup: 4, batch: 10,
		})

		dist := ga.CreateSessionRequest{
			Game: entry.Name, Players: players, Seed: uint64(300 + i),
			PulseBudget: 1000 * ga.PulsesPerPlay(1),
		}
		dist.Distributed = &struct {
			N int `json:"n"`
			F int `json:"f"`
		}{N: players, F: (players - 1) / 3}
		out = append(out, playnScenario{
			name: "dist-" + entry.Name, spec: dist, warmup: 1, batch: 3,
		})

		rra := ga.CreateSessionRequest{
			Seed:       uint64(400 + i),
			Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
		}
		rra.RRA = &struct {
			Agents    int `json:"agents"`
			Resources int `json:"resources"`
		}{Agents: 4 + i%4, Resources: 2 + i%3}
		out = append(out, playnScenario{
			name: fmt.Sprintf("rra-%s", entry.Name), spec: rra, warmup: 4, batch: 10,
		})
	}
	return out
}

// playnStores builds a fresh store per invocation for each backend the
// equivalence property must hold on.
func playnStores(t *testing.T) map[string]func() ga.Store {
	t.Helper()
	return map[string]func() ga.Store{
		"mem": func() ga.Store { return ga.NewMemStore() },
		"file": func() ga.Store {
			st, err := ga.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
}

// runSequential warms the session and then plays batch rounds one Play at
// a time, returning the per-round result hashes and the final snapshot
// digest.
func runSequential(t *testing.T, h *ga.HostedSession, warmup, batch int) ([]string, string) {
	t.Helper()
	ctx := context.Background()
	if warmup > 0 {
		if _, err := h.Run(ctx, warmup); err != nil {
			t.Fatal(err)
		}
	}
	hashes := make([]string, 0, batch)
	for i := 0; i < batch; i++ {
		res, err := h.Play(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, core.HashResult(res))
	}
	return hashes, h.Snapshot().Digest
}

// runBatched warms the session identically and then plays the same rounds
// through one PlayN call, hashing each round in the sink (before the next
// round can reuse the scratch buffers the result aliases).
func runBatched(t *testing.T, h *ga.HostedSession, warmup, batch int) ([]string, string) {
	t.Helper()
	ctx := context.Background()
	if warmup > 0 {
		if _, err := h.Run(ctx, warmup); err != nil {
			t.Fatal(err)
		}
	}
	hashes := make([]string, 0, batch)
	last, err := h.PlayN(ctx, batch, func(res ga.RoundResult) error {
		hashes = append(hashes, core.HashResult(res))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.HashResult(last), hashes[len(hashes)-1]; got != want {
		t.Fatalf("PlayN returned result hash %s, last sink hash %s", got, want)
	}
	return hashes, h.Snapshot().Digest
}

// TestPlayNEquivalence is the batched-play correctness property: for
// every catalog game, all four drivers, and both store backends, PlayN(n)
// after a sequential warmup is digest-identical — per-round result hash
// and final snapshot digest — to n sequential Play calls at the same
// seed. The warmup puts several cells mid-punishment and post-conviction
// when the batch starts, so the batch path is proven across judicial
// state, not just clean rounds.
func TestPlayNEquivalence(t *testing.T) {
	scenarios := playnScenarios(t)
	stores := playnStores(t)
	for _, sc := range scenarios {
		for storeName, newStore := range stores {
			sc := sc
			t.Run(sc.name+"/"+storeName, func(t *testing.T) {
				t.Parallel()
				seqHost := ga.NewAuthority(ga.WithStore(newStore()))
				defer seqHost.Close()
				seq, err := seqHost.CreateFromSpec(sc.spec)
				if err != nil {
					t.Fatal(err)
				}
				wantHashes, wantDigest := runSequential(t, seq, sc.warmup, sc.batch)

				batHost := ga.NewAuthority(ga.WithStore(newStore()))
				defer batHost.Close()
				bat, err := batHost.CreateFromSpec(sc.spec)
				if err != nil {
					t.Fatal(err)
				}
				gotHashes, gotDigest := runBatched(t, bat, sc.warmup, sc.batch)

				if len(gotHashes) != len(wantHashes) {
					t.Fatalf("PlayN yielded %d rounds, sequential %d", len(gotHashes), len(wantHashes))
				}
				for i := range wantHashes {
					if gotHashes[i] != wantHashes[i] {
						t.Fatalf("round %d: PlayN hash %s, sequential %s", sc.warmup+i, gotHashes[i], wantHashes[i])
					}
				}
				if gotDigest != wantDigest {
					t.Fatalf("final digest diverged: PlayN %s, sequential %s", gotDigest, wantDigest)
				}
			})
		}
	}
}

// TestPlayNValidation pins the PlayN contract edges: a non-positive batch
// is ErrConfig, a nil sink is allowed, and a sink error aborts the batch
// after the offending round while keeping the completed prefix journaled
// and the session consistent.
func TestPlayNValidation(t *testing.T) {
	ctx := context.Background()
	a := ga.NewAuthority(ga.WithStore(ga.NewMemStore()))
	defer a.Close()
	h, err := a.CreateFromSpec(ga.CreateSessionRequest{Game: "pd", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlayN(ctx, 0, nil); !errors.Is(err, ga.ErrConfig) {
		t.Fatalf("PlayN(0) error = %v, want ErrConfig", err)
	}
	if _, err := h.PlayN(ctx, -3, nil); !errors.Is(err, ga.ErrConfig) {
		t.Fatalf("PlayN(-3) error = %v, want ErrConfig", err)
	}
	if _, err := h.PlayN(ctx, 4, nil); err != nil {
		t.Fatalf("PlayN with nil sink: %v", err)
	}
	boom := errors.New("sink says stop")
	seen := 0
	_, err = h.PlayN(ctx, 5, func(ga.RoundResult) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
	if seen != 2 {
		t.Fatalf("sink ran %d times after aborting at 2", seen)
	}
	// The two completed rounds stayed: both in the live session and in
	// the journal (the batch record holds exactly the completed prefix).
	if got := h.Stats().Rounds; got != 6 {
		t.Fatalf("session at round %d, want 6 (4 + 2 completed)", got)
	}
}
