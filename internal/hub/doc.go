// Package hub is the authority's streaming transport: a WebSocket
// endpoint (RFC 6455, implemented directly on net.Conn — the module has
// no dependencies) multiplexing many hosted sessions per connection,
// and a pool of shard loops that execute their commands.
//
// Every session is pinned to a shard by FNV-1a hash of its id, all of
// its /ws plays and snapshots execute in order on that shard's single
// goroutine, and the network side only enqueues commands onto shard
// inboxes and dequeues encoded frames. (A session's own locks, not the
// loop, are what order its plays against other transports'.)
// Each connection has exactly one reader (decoding internal/wire command
// batches) and one writer goroutine draining a bounded outbox, coalescing
// queued frames into shared flushes.
//
// Backpressure is explicit and split by traffic class. Command replies
// (play results, acks) are never dropped: a full outbox blocks the shard
// loop briefly, and a peer that cannot absorb its backlog within the
// write deadline is closed (counted in StreamTimeouts). Events are
// droppable: a full outbox drops the event, the per-subscription delta
// encoder resets so the next delivered event is self-contained, and the
// subscriber is told how many events it missed via a MsgLag notice
// (counted in EventsDropped).
//
// The package exposes both sides of the protocol: Hub (the server,
// mounted at /ws) and Client (a multiplexed connection used by
// cmd/loadgen and the cross-transport tests). See DESIGN.md §10.
package hub
