// Package store is the authority's pluggable persistence subsystem: a
// per-session write-ahead log of plays, verdicts, and convictions plus
// periodically compacted snapshots, behind a backend-agnostic Store
// interface with in-memory and file implementations. The file backend
// keeps each session in one file of CRC-guarded binary frames — magic,
// spec, latest snapshot, then the records in round order — that create
// and compaction write whole; compaction walks the frame headers and
// copies the records it keeps byte for byte without reading the ones it
// drops. It holds no session file open between calls: an append encodes
// its frame on the stack, opens its file, writes the frame and closes the
// file once its commit epoch has flushed (at once without a committer).
//
// The store is deliberately engine-agnostic: it journals opaque session
// specs, per-play transcript hashes, and opaque snapshot payloads — the
// core package's deterministic replay (core.Restore) turns them back into
// byte-identical live sessions. See DESIGN.md §9 for the durability model
// (session file format, snapshot cadence, recovery ordering).
package store
