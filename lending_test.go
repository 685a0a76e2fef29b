package gameauthority_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/hub"
)

// TestLentWorkspaceHammer plays 64 hosted pure sessions of one player
// count from 8 goroutines at once, each goroutine visiting every session
// in its own order and playing it over /ws or directly, so plays of many
// sessions borrow and return the same few workspaces (internal/core's free
// list) concurrently, and plays of one session arrive from both
// transports. One session in eight carries a convicted deviant, whose
// plays write fouls and exclusions through the lent workspace. A session's
// state depends only on its play count, so each one's digest must equal
// that of a twin played the same count sequentially. Under -race (make
// race) any sharing between two plays in flight is a reported race;
// internal/core's TestWorkspaceLentTwiceRaces shows such a report would
// appear. make hammer runs it twenty times at -cpu 1,2,4.
func TestLentWorkspaceHammer(t *testing.T) {
	const sessions, workers, rounds = 64, 8, 3 // every worker plays every session rounds times
	ctx := context.Background()
	a, srv, _ := wsTestServer(t)
	games := []string{"congestion", "publicgoods-punish"}
	specs := make([]ga.CreateSessionRequest, sessions)
	for i := range specs {
		specs[i] = ga.CreateSessionRequest{ID: fmt.Sprintf("lend-%d", i), Game: games[i%len(games)], Players: 4, Seed: uint64(i) + 1, HistoryLimit: 8}
		if i%8 == 0 {
			specs[i].Deviant = &ga.DeviantSpec{Player: 1, Strategy: "commitment-cheat"}
			specs[i].Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		}
		if _, err := a.CreateFromSpec(specs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c, err := hub.Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < sessions; k++ {
				id := specs[(k*5+w*8)%sessions].ID // 5 is coprime to 64: every session once
				if (k+w)%2 == 0 {
					ref, err := c.Attach(id)
					if err != nil {
						t.Errorf("attach %s: %v", id, err)
						return
					}
					if out, err := c.Play(ref, rounds); err != nil || out.Completed != rounds {
						t.Errorf("/ws play %s: %+v %v", id, out, err)
						return
					}
					continue
				}
				h, err := a.Get(id)
				if err == nil {
					_, err = h.PlayN(ctx, rounds, nil)
				}
				if err != nil {
					t.Errorf("direct play %s: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	twins := ga.NewAuthority()
	defer twins.Close()
	for _, spec := range specs {
		h, err := a.Get(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := twins.CreateFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Run(ctx, workers*rounds); err != nil {
			t.Fatal(err)
		}
		st := h.Stats()
		if st.Players != 4 || st.Rounds != workers*rounds {
			t.Fatalf("%s: %d players, %d rounds; want 4 and %d", spec.ID, st.Players, st.Rounds, workers*rounds)
		}
		if spec.Deviant != nil && st.Convictions == 0 {
			t.Fatalf("%s: the deviant was not convicted", spec.ID)
		}
		if got, want := h.Snapshot().Digest, twin.Snapshot().Digest; got != want {
			t.Errorf("%s: digest %.12s, its sequential twin's %.12s", spec.ID, got, want)
		}
	}
}
