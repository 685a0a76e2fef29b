package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	ga "gameauthority"
)

// The four workload names are fixed: BENCHMARK.json, the result files and
// later issues refer to them.
const (
	wlWSPure       = "ws_pure"
	wlInprocDist   = "inproc_dist"
	wlDurableBatch = "inproc_durable_batch"
	wlRecover      = "recover_replay"
)

var workloadNames = []string{wlWSPure, wlInprocDist, wlDurableBatch, wlRecover}

// clients is the closed-loop client count of every workload: never more
// than the 2 cores of the reference host, because the clients share the
// process (and its cores) with the authority they drive.
const clients = 2

// referenceSeconds is the run length the window counts below were sized
// for on the 2-core reference host. A window is a fixed number of
// requests, so a run is fixed work, not fixed time; -seconds scales how
// many windows a run has, and the same -seconds always issues exactly the
// same requests.
const referenceSeconds = 15

// historyLimit bounds every session's retained history ring, as the load
// harness does: long-running sessions keep a flat footprint.
const historyLimit = 8

// batchRounds is the PlayN batch size of the durable workloads.
const batchRounds = 16

// pureGames is the catalog cycle of the pure-driver workloads.
var pureGames = []string{"congestion", "braess", "publicgoods-punish", "minority", "pd", "firstprice"}

// visibleDeviants lists the deviation strategies the deviation matrix
// documents as visible in every game of the workloads, for every seed and
// player slot: both break the commit-reveal protocol itself (an opening
// that does not match its commitment, a withheld reveal), so the judicial
// service fouls them in their first play whatever the game. The
// payoff-level strategies (always-defect, best-response-liar,
// distribution-skewer) are left out: whether they ever leave the
// legitimate strategy space depends on the game, the slot and the seed —
// camping a weakly dominant action is legitimate play (DESIGN.md §8) — and
// a deviant session that ends a run unconvicted is a failed output check.
var visibleDeviants = []string{"commitment-cheat", "freerider"}

// shape is the size of one workload's fixture and measured phase.
type shape struct {
	sessions int
	// warmup is the number of untimed requests per session that end the
	// fixture build.
	warmup int
	// requests is the number of timed requests per client per window.
	requests int
	// roundsPerRequest is how many plays one request completes.
	roundsPerRequest int
	// windows is the number of measured windows; the reported timing
	// metrics are those of the fastest one.
	windows int
	// traceWindows is the window count of the traced re-run: they
	// alternate tracing off and on.
	traceWindows int
	// twins is how many sessions the output check replays in-process.
	twins int
}

// recoverRounds is the journal length of every recover_replay session:
// 40 batches of 16, so each has a compacted snapshot at 512 and a
// 128-round WAL tail.
const recoverRounds = 40 * batchRounds

// shapeFor sizes a workload. A window of workloads 1–3 is sized to about a
// third of a second on the reference host, and there are forty of them at
// referenceSeconds: the distributed engine flips between a fast and a slow
// scheduling regime several times a second, and only a window short
// enough to sit inside the fast one repeats from run to run (README.md,
// "Why the fastest of many short windows"). A recover_replay window is a
// whole crash/recover pass, about a second, so it has ten. quick shrinks
// everything to a smoke test that still runs every output check.
func shapeFor(workload string, seconds int, quick bool) (shape, error) {
	var s shape
	switch workload {
	case wlWSPure:
		// Two passes over the client's 4096 sessions per window.
		s = shape{sessions: 8192, warmup: 4, requests: 8192, roundsPerRequest: 1, windows: 40}
		if quick {
			s.sessions, s.requests = 64, 128
		}
	case wlInprocDist:
		// 48 sessions at n=4, f=1 and 16 at n=7, f=2; eight passes over the
		// client's 32 sessions per window, a sixth of a second.
		s = shape{sessions: 64, warmup: 64, requests: 256, roundsPerRequest: 1, windows: 100}
		if quick {
			s.sessions, s.warmup, s.requests = 8, 4, 8
		}
	case wlDurableBatch:
		// Three passes over the client's 128 sessions per window.
		s = shape{sessions: 256, warmup: 2, requests: 384, roundsPerRequest: batchRounds, windows: 40}
		if quick {
			s.sessions, s.requests = 16, 16
		}
	case wlRecover:
		// One request per session: a window recovers every one of them.
		s = shape{sessions: 1024, roundsPerRequest: recoverRounds, windows: 10}
		if quick {
			s.sessions = 16
		}
		s.requests = s.sessions / clients
	default:
		return s, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	s.windows = s.windows * seconds / referenceSeconds
	if s.windows < 2 {
		s.windows = 2
	}
	// Three traced-run windows for every ten measured ones, in pairs.
	s.traceWindows = (s.windows*3/10 + 1) &^ 1
	if s.traceWindows < 2 {
		s.traceWindows = 2
	}
	s.twins = 16
	if quick {
		s.windows, s.traceWindows, s.twins = 1, 2, 4
	}
	return s, nil
}

// splitmix is the seed-derivation stream: every session seed and every
// deviant placement comes from it, so -seed fixes the whole input set.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sessionSpec is one generated input: the wire spec the authority
// receives, plus what the output checks need to know about it.
type sessionSpec struct {
	ID      string
	JSON    []byte
	Req     ga.CreateSessionRequest
	Deviant bool
}

// genSpecs derives a workload's session specs from the seed. One session
// in every block of eight carries one deviant from the visible table plus
// the disconnect scheme; all the others are built with the options a user
// gets by default. Where in its block the deviant sits is a seed-chosen
// permutation of the eight offsets over every eight blocks, and the two
// strategies alternate from a seed-chosen start: the seed moves the
// deviants around, but every seed puts the same number on each network
// size and on each strategy, so no metric depends on the draw.
func genSpecs(workload string, sh shape, seed uint64) ([]sessionSpec, error) {
	name := fnv.New64a()
	name.Write([]byte(workload))
	rng := splitmix(seed ^ name.Sum64())
	specs := make([]sessionSpec, sh.sessions)
	var offsets [8]int
	firstStrategy := int(rng.next() % uint64(len(visibleDeviants)))
	for i := range specs {
		block := i / 8
		if i%64 == 0 {
			for k := range offsets {
				offsets[k] = k
			}
			for k := len(offsets) - 1; k > 0; k-- {
				j := int(rng.next() % uint64(k+1))
				offsets[k], offsets[j] = offsets[j], offsets[k]
			}
		}
		req := ga.CreateSessionRequest{
			ID:           fmt.Sprintf("%s-%05d", workload, i),
			Seed:         rng.next(),
			HistoryLimit: historyLimit,
		}
		if workload == wlInprocDist {
			// Every fourth session is the larger network, so each client's
			// contiguous half of the sessions is 3 : 1 as well.
			n, f := 4, 1
			if i%4 == 3 {
				n, f = 7, 2
			}
			req.Game, req.Players = "publicgoods", n
			req.Distributed = &struct {
				N int `json:"n"`
				F int `json:"f"`
			}{N: n, F: f}
		} else {
			req.Game = pureGames[i%len(pureGames)]
		}
		// The slot is drawn for every session, used or not, so that every
		// session's seed sits at a fixed place in the stream.
		slot := rng.next()
		if i%8 == offsets[block%8] && workload != wlRecover {
			players, err := playersOf(req)
			if err != nil {
				return nil, err
			}
			req.Deviant = &ga.DeviantSpec{
				Player:   int(slot % uint64(players)),
				Strategy: visibleDeviants[(firstStrategy+block)%len(visibleDeviants)],
			}
			req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		specs[i] = sessionSpec{ID: req.ID, JSON: body, Req: req, Deviant: req.Deviant != nil}
	}
	return specs, nil
}

// playersOf reports how many players the spec's game has at the size the
// authority will build it.
func playersOf(req ga.CreateSessionRequest) (int, error) {
	if req.Distributed != nil {
		return req.Distributed.N, nil
	}
	e, ok := ga.ScenarioByName(req.Game)
	if !ok {
		return 0, fmt.Errorf("game %q is not in the catalog", req.Game)
	}
	return e.Players(4), nil
}
