package gameauthority_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/core"
	"gameauthority/internal/store"
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
// equivalence property must hold on, with the root directory of a File
// store (journalOf reads its log files).
func playnStores() map[string]func(*testing.T) (ga.Store, string) {
	return map[string]func(*testing.T) (ga.Store, string){
		"mem": func(*testing.T) (ga.Store, string) { return ga.NewMemStore(), "" },
		"file": func(t *testing.T) (ga.Store, string) {
			dir := t.TempDir()
			st, err := ga.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st, dir
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
//
// The journal half: Play is PlayN(1), so the same rounds played either
// way write the same play records, byte for byte — which is also what
// every ledger written before the play paths merged holds — and one
// PlayN(n) writes one batch record carrying the same per-play hashes.
func TestPlayNEquivalence(t *testing.T) {
	scenarios := playnScenarios(t)
	for _, sc := range scenarios {
		for storeName, newStore := range playnStores() {
			sc := sc
			t.Run(sc.name+"/"+storeName, func(t *testing.T) {
				t.Parallel()
				host := func() (*ga.HostedSession, ga.Store, string) {
					st, dir := newStore(t)
					a := ga.NewAuthority(ga.WithStore(st))
					t.Cleanup(func() { a.Close() })
					h, err := a.CreateFromSpec(sc.spec)
					if err != nil {
						t.Fatal(err)
					}
					return h, st, dir
				}
				seq, seqStore, seqDir := host()
				wantHashes, wantDigest := runSequential(t, seq, sc.warmup, sc.batch)

				bat, batStore, batDir := host()
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

				ones, onesStore, onesDir := host()
				for i := 0; i < sc.warmup+sc.batch; i++ {
					if _, err := ones.PlayN(context.Background(), 1, nil); err != nil {
						t.Fatal(err)
					}
				}
				plays, playsRaw := journalOf(t, seqStore, seqDir, seq.ID())
				_, onesRaw := journalOf(t, onesStore, onesDir, ones.ID())
				if !bytes.Equal(playsRaw, onesRaw) {
					t.Fatalf("Play and PlayN(1) journals differ:\n%s\n%s", playsRaw, onesRaw)
				}
				if len(plays) != sc.warmup+sc.batch {
					t.Fatalf("%d Play calls journaled %d records", sc.warmup+sc.batch, len(plays))
				}
				for i, rec := range plays {
					if rec.Type != "play" || rec.Round != i {
						t.Fatalf("record %d of the Play journal is %+v", i, rec)
					}
				}
				batched, _ := journalOf(t, batStore, batDir, bat.ID())
				if len(batched) != sc.warmup+1 || batched[sc.warmup].Type != "batch" || len(batched[sc.warmup].Plays) != sc.batch {
					t.Fatalf("PlayN(%d) after %d plays journaled %+v, want one batch record behind the play records",
						sc.batch, sc.warmup, batched)
				}
				for i, bp := range batched[sc.warmup].Plays {
					if rec := plays[sc.warmup+i]; bp.Round != rec.Round || bp.Hash != rec.Hash || bp.Fouls != rec.Fouls {
						t.Fatalf("batch play %d is %+v, the play record %+v", i, bp, rec)
					}
				}
			})
		}
	}
}

// journalOf returns a session's WAL as its store holds it: the log file
// itself when dir names a File store's root, else the records' JSON.
func journalOf(t *testing.T, st ga.Store, dir, id string) ([]ga.Record, []byte) {
	t.Helper()
	state, ok, err := st.LoadSession(id)
	if err != nil || !ok {
		t.Fatalf("load %q: found %v, err %v", id, ok, err)
	}
	raw, err := json.Marshal(state.Tail)
	if dir != "" {
		raw, err = os.ReadFile(filepath.Join(dir, "sessions", id+".wal"))
	}
	if err != nil {
		t.Fatal(err)
	}
	return state.Tail, raw
}

// TestPlayNValidation pins the PlayN contract edges: a non-positive batch
// is ErrConfig, an oversized one on a cancelled context is
// context.Canceled with nothing played, a nil sink is allowed, and a sink
// error aborts the batch after the offending round while keeping the
// completed prefix journaled and the session consistent.
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
	// An oversized batch on a durable session is refused by its context,
	// not by sizing a journal batch before the first play.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := h.PlayN(cancelled, math.MaxInt, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlayN(MaxInt) on a cancelled context: %v, want context.Canceled", err)
	}
	if got := h.Stats().Rounds; got != 0 {
		t.Fatalf("a cancelled PlayN played %d rounds", got)
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

// TestJournaledHashesArePlayHashes pins what a request journals against
// what it played. For PlayN(k) at k = 1, 2, 16, 17 and 64, on both stores,
// the request's one record carries, in round order, core.HashResult and
// the convicted set of each result its sink saw. A sink error after j
// rounds journals exactly those j. Each size is played twice in a row on
// one session, so journal scratch reused across calls cannot carry one
// call's plays into the other's record.
func TestJournaledHashesArePlayHashes(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("sink says stop")
	for storeName, newStore := range playnStores() {
		t.Run(storeName, func(t *testing.T) {
			st, _ := newStore(t)
			a := ga.NewAuthority(ga.WithStore(st), ga.WithSnapshotEvery(0))
			defer a.Close()
			h, err := a.CreateFromSpec(ga.CreateSessionRequest{
				Game: "pd", Seed: 3,
				Deviant:    &ga.DeviantSpec{Player: 0, Strategy: "commitment-cheat"},
				Punishment: &ga.PunishmentSpec{Scheme: "reputation"},
			})
			if err != nil {
				t.Fatal(err)
			}
			type play struct {
				hash      string
				convicted []int
			}
			var requests [][]play // what each request's sink saw
			request := func(k, stopAt int) {
				var seen []play
				_, err := h.PlayN(ctx, k, func(res ga.RoundResult) error {
					seen = append(seen, play{core.HashResult(res), append([]int(nil), res.Convicted...)})
					if len(seen) == stopAt {
						return boom
					}
					return nil
				})
				if want := stopAt > 0; err != nil != want || (want && !errors.Is(err, boom)) {
					t.Fatalf("PlayN(%d) stopping at %d: %v", k, stopAt, err)
				}
				requests = append(requests, seen)
			}
			for _, k := range []int{1, 2, 16, 17, 64} {
				request(k, 0)
				request(k, 0)
			}
			request(2, 1)
			request(17, 9)
			request(64, 40)

			records, _ := journalOf(t, st, "", h.ID())
			if len(records) != len(requests) {
				t.Fatalf("%d requests journaled %d records", len(requests), len(records))
			}
			round, convictions := 0, 0
			for i, rec := range records {
				plays := rec.Plays
				if rec.Type == "play" {
					plays = []store.BatchPlay{{Round: rec.Round, Hash: rec.Hash, Convicted: rec.Convicted}}
				}
				if want := len(requests[i]); len(plays) != want || (want == 1) != (rec.Type == "play") {
					t.Fatalf("request %d played %d rounds and journaled a %s record of %d", i, want, rec.Type, len(plays))
				}
				for j, bp := range plays {
					want := requests[i][j]
					if bp.Round != round || bp.Hash != want.hash || !slices.Equal(bp.Convicted, want.convicted) {
						t.Fatalf("request %d, play %d: journaled round %d hash %s convicted %v; played round %d hash %s convicted %v",
							i, j, bp.Round, bp.Hash, bp.Convicted, round, want.hash, want.convicted)
					}
					round++
					convictions += len(bp.Convicted)
				}
			}
			if convictions == 0 {
				t.Fatal("no journaled play carries a conviction: the deviant went unconvicted")
			}
		})
	}
}
