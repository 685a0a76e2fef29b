package gameauthority

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"gameauthority/internal/core"
	"gameauthority/internal/hub"
	"gameauthority/internal/obs"
	"gameauthority/internal/wire"
)

// registerLoopGauge exposes the shard-loop backlog of the most recently
// built pool. Name-keyed replacement in the obs registry means the
// latest pool wins, which is the live one in any real process.
func registerLoopGauge(sp *hub.Shards) {
	obs.RegisterGaugeFunc("gameauthority_shard_loop_queue_depth",
		"Commands queued on authoritative shard-loop inboxes.",
		func() float64 { return float64(sp.QueueDepth()) })
}

// WithShards runs the authority's plays on n authoritative shard loops
// (n < 1 means GOMAXPROCS): each hosted session is pinned onto one loop
// by id hash and every play — HTTP, WebSocket, or in-process — executes
// on that loop's goroutine, turning per-request locking into
// enqueue/dequeue onto shard inboxes. Without this option the HTTP and
// in-process paths play inline as before, and only the WebSocket
// transport uses (lazily created) shard loops.
func WithShards(n int) AuthorityOption {
	return func(a *Authority) {
		sp := hub.NewShards(n)
		a.loops.Store(sp)
		a.loopsRoute.Store(true)
		registerLoopGauge(sp)
	}
}

// shardLoops returns the authority's loop pool, creating a GOMAXPROCS
// pool on first use (the WebSocket transport always dispatches through
// loops; see WithShards for routing everything through them).
func (a *Authority) shardLoops() *hub.Shards {
	if sp := a.loops.Load(); sp != nil {
		return sp
	}
	a.loopsMu.Lock()
	defer a.loopsMu.Unlock()
	if sp := a.loops.Load(); sp != nil {
		return sp
	}
	sp := hub.NewShards(runtime.GOMAXPROCS(0))
	a.loops.Store(sp)
	registerLoopGauge(sp)
	return sp
}

// streamHub lazily builds the WebSocket hub mounted at /ws.
func (a *Authority) streamHub() *hub.Hub {
	return hub.New(wsBackend{a}, hub.Options{
		Shards:    a.shardLoops(),
		Counters:  &a.counters,
		MaxRounds: maxPlayRounds,
	})
}

// wsBackend adapts the Authority to the hub's Backend interface, coding
// its errors through errorTable.
type wsBackend struct{ a *Authority }

func (b wsBackend) Create(spec []byte) (hub.Handle, error) {
	var req CreateSessionRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return nil, hub.Coded{Code: wire.CodeBadRequest, Err: fmt.Errorf("invalid session spec: %w", err)}
	}
	h, err := b.a.CreateFromSpec(req)
	if err != nil {
		return nil, hub.Coded{Code: classify(err, classBadSpec).code, Err: err}
	}
	return wsHandle{h}, nil
}

func (b wsBackend) Attach(ctx context.Context, id string) (hub.Handle, error) {
	h, err := b.a.GetOrRecover(ctx, id)
	if err != nil {
		return nil, hub.Coded{Code: classify(err, classInternal).code, Err: err}
	}
	return wsHandle{h}, nil
}

func (b wsBackend) Remove(id string) error {
	if err := b.a.Remove(id); err != nil {
		return hub.Coded{Code: classify(err, classInternal).code, Err: err}
	}
	return nil
}

// wsHandle adapts a hosted session for the hub. Play is the direct form:
// hub commands already execute on the session's shard loop, so routing
// through HostedSession.Play again would deadlock a WithShards authority
// (the loop would wait on itself).
type wsHandle struct{ h *HostedSession }

func (w wsHandle) ID() string { return w.h.ID() }

func (w wsHandle) Play(ctx context.Context) (core.RoundResult, error) {
	res, err := w.h.playDirect(ctx)
	if err != nil {
		return res, hub.Coded{Code: classify(err, classInternal).code, Err: err}
	}
	return res, nil
}

// PlayN is the hub.BatchHandle surface: like Play it must use the direct
// form, since the hub runs it on the session's shard loop already.
func (w wsHandle) PlayN(ctx context.Context, n int, sink func(core.RoundResult) error) (core.RoundResult, error) {
	res, err := w.h.playNDirect(ctx, n, sink)
	if err != nil {
		return res, hub.Coded{Code: classify(err, classInternal).code, Err: err}
	}
	return res, nil
}

// ResultAt serves the hub's deduplicated replays of retried plays from
// the session's history ring.
func (w wsHandle) ResultAt(round int) (core.RoundResult, bool) { return w.h.ResultAt(round) }

func (w wsHandle) Subscribe(obs core.Observer) func() { return w.h.Subscribe(obs) }

func (w wsHandle) Stats() core.SessionStats { return w.h.Stats() }

func (w wsHandle) Snapshot() (core.SessionSnapshot, bool, error) {
	snap, persisted, err := w.h.a.snapshotHosted(w.h, w.h.Session.Snapshot())
	if err != nil {
		return snap, persisted, hub.Coded{Code: wire.CodeUnavailable, Err: err}
	}
	return snap, persisted, nil
}
