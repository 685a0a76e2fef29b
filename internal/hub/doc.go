// Package hub is the authority's streaming transport: a WebSocket
// endpoint (RFC 6455, implemented directly on net.Conn — the module has
// no dependencies) multiplexing many hosted sessions per connection,
// and a pool of shard loops that execute their commands.
//
// Every session is pinned to a shard by FNV-1a hash of its id, computed
// once when a connection binds it; all of its /ws plays and snapshots
// execute in order on that shard's single goroutine, and the network side
// only enqueues commands onto shard inboxes and dequeues encoded frames.
// (A session's own locks, not the loop, are what order its plays against
// other transports'.) A queued play is a recycled struct, not a closure.
// Each connection has exactly one reader (decoding internal/wire command
// batches) and one writer goroutine draining a bounded outbox, coalescing
// queued frames into shared flushes.
//
// Backpressure is explicit and split by traffic class. Command replies
// (play results, acks) are never dropped: a full outbox blocks the shard
// loop briefly, and a peer that cannot absorb its backlog within the
// write deadline is closed (counted in
// gameauthority_stream_timeouts_total). Events are droppable: a full
// outbox drops the event, the per-subscription delta encoder resets so
// the next delivered event is self-contained, and the subscriber is told
// how many events it missed via a MsgLag notice (counted in
// gameauthority_events_dropped_total).
//
// The package exposes both sides of the protocol: Hub (the server,
// mounted at /ws) and Client (a multiplexed connection, used by
// internal/invariant's /ws transport and by the benchmark). A /ws play
// allocates nothing on either side: frames are read in per-connection
// scratch, and frame buffers, queued plays and reply slots are recycled.
//
// Client.Play returns a PlayOutcome of plain counts — rounds completed,
// rounds deduplicated, the last round's index — that the caller owns; a
// round's outcome and costs reach a caller that wants them as events.
// Each outstanding command holds a reply slot. The goroutine that removes
// a slot from the pending table (the reader resolving it, or the sweep of
// a dead connection) is the only one that fills it and signals it; the
// waiting caller reads it only after that signal and recycles it only
// then, so a slot never carries a stale reply into a later command.
// See DESIGN.md §10.
package hub
