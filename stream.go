package gameauthority

import (
	"context"
	"encoding/json"
	"fmt"

	"gameauthority/internal/core"
	"gameauthority/internal/hub"
	"gameauthority/internal/obs"
	"gameauthority/internal/wire"
)

// shardLoops returns the authority's loop pool, creating a GOMAXPROCS
// pool on first use (the WebSocket transport dispatches every command
// through it). The queue-depth gauge is keyed by name, so the latest
// pool's replaces any earlier one's — the live one in any real process.
func (a *Authority) shardLoops() *hub.Shards {
	a.loopsMu.Lock()
	defer a.loopsMu.Unlock()
	sp := a.loops.Load()
	if sp == nil {
		sp = hub.NewShards(0) // GOMAXPROCS loops
		a.loops.Store(sp)
		obs.RegisterGaugeFunc("gameauthority_shard_loop_queue_depth",
			"Commands queued on authoritative shard-loop inboxes.",
			func() float64 { return float64(sp.QueueDepth()) })
	}
	return sp
}

// streamHub lazily builds the WebSocket hub mounted at /ws.
func (a *Authority) streamHub() *hub.Hub {
	return hub.New(wsBackend{a}, hub.Options{
		Shards:    a.shardLoops(),
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

// wsHandle is a hosted session as the hub sees it: ID, ResultAt (the
// replay source for deduplicated retries), Subscribe and Stats are the
// session's own; PlayN and Snapshot add the wire code of their errors
// through errorTable.
type wsHandle struct{ *HostedSession }

func (w wsHandle) PlayN(ctx context.Context, n int, sink func(core.RoundResult) error) (core.RoundResult, error) {
	res, err := w.HostedSession.PlayN(ctx, n, sink)
	if err != nil {
		return res, hub.Coded{Code: classify(err, classInternal).code, Err: err}
	}
	return res, nil
}

func (w wsHandle) Snapshot() (core.SessionSnapshot, bool, error) {
	snap, persisted, err := w.snapshot()
	if err != nil {
		return snap, persisted, hub.Coded{Code: wire.CodeUnavailable, Err: err}
	}
	return snap, persisted, nil
}
