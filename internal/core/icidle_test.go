package core

import (
	"context"
	"fmt"
	"testing"

	"gameauthority/internal/game"
	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
)

// TestICIdleWhenStepReturns is a probe for lending the agreement state
// (the EIG trees, IC engines and value pools a hosted distributed session
// holds between plays): that is only sound if, whenever a converged play
// returns from DistSession.step, no processor has an interactive
// consistency in flight — icActive false and no phase span open. A play
// is converged when it lands one clock period after the one before it.
// The probe plays honest sessions, sessions with a freerider (who never
// reveals) and sessions after one transient fault at (4, 1), (7, 2) and
// (10, 2), with the tracer on so a phase left open would show, and
// requires every processor idle after every converged play.
func TestICIdleWhenStepReturns(t *testing.T) {
	obs.DefaultTracer.Enable(64, 1)
	defer obs.DefaultTracer.Disable()
	const plays = 24
	ctx := context.Background()
	for _, shape := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 2}} {
		for _, variant := range []string{"honest", "freerider", "corrupt"} {
			t.Run(fmt.Sprintf("n%df%d-%s", shape.n, shape.f, variant), func(t *testing.T) {
				g, err := game.PublicGoods(shape.n, 2)
				if err != nil {
					t.Fatal(err)
				}
				agents := make([]*Agent, shape.n)
				if variant == "freerider" {
					agents[1] = &Agent{Choose: HonestPure(g, 1).Choose, Withhold: func(int) bool { return true }}
				}
				s, err := NewSession(SessionConfig{
					Game: g, Seed: 41, DistProcs: shape.n, DistFaults: shape.f, Agents: agents,
					Scheme: punish.NewDisconnect(shape.n, 0), HistoryLimit: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				d := EngineOf(s).(*DistSession)
				period := PulsesPerPlay(shape.f)
				converged, busy, prev := 0, 0, 0
				for k := 0; k < plays; k++ {
					if variant == "corrupt" && k == plays/3 {
						d.Net.Corrupt(prng.New(77).Uint64)
						prev = 0
					}
					res, err := s.Play(ctx)
					if err != nil {
						t.Fatal(err)
					}
					inFlight := 0
					for _, p := range d.Procs {
						if p.icActive || p.phaseSpan != (obs.Ctx{}) {
							inFlight++
						}
					}
					if prev == 0 || res.Pulse-prev != period {
						busy += min(inFlight, 1)
					} else if converged++; inFlight > 0 {
						t.Errorf("play %d at pulse %d: %d processors have a phase in flight", k, res.Pulse, inFlight)
					}
					prev = res.Pulse
				}
				if converged < plays/2 {
					t.Fatalf("only %d of %d plays converged", converged, plays)
				}
				t.Logf("%d of %d plays converged, every processor idle after each; %d of the other %d found a phase in flight",
					converged, plays, busy, plays-converged)
			})
		}
	}
}
