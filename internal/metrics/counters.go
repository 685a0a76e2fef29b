package metrics

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Counters are the authority host's operational counters, exported on the
// GET /metrics Prometheus text endpoint. All fields are atomic: the play
// hot path touches them lock-free and allocation-free.
type Counters struct {
	// Sessions is the number of currently hosted sessions (gauge).
	Sessions atomic.Int64
	// SessionsCreated counts every session ever hosted.
	SessionsCreated atomic.Int64
	// Plays counts completed plays across all hosted sessions.
	Plays atomic.Int64
	// Fouls counts judicial fouls observed in hosted plays.
	Fouls atomic.Int64
	// Convictions counts guilty verdicts observed in hosted plays.
	Convictions atomic.Int64
	// Recoveries counts sessions restored from the durable store.
	Recoveries atomic.Int64
	// ReplayedRounds counts plays re-executed during recovery.
	ReplayedRounds atomic.Int64
	// Snapshots counts compacted snapshots written to the store.
	Snapshots atomic.Int64
	// WALRecords counts write-ahead-log records appended to the store.
	WALRecords atomic.Int64
	// WSConnections is the number of live WebSocket connections (gauge).
	WSConnections atomic.Int64
	// EventsDropped counts events dropped for slow subscribers (SSE and
	// WebSocket); subscribers are told how many they missed via lag
	// notices.
	EventsDropped atomic.Int64
	// StreamTimeouts counts streaming connections (SSE or WebSocket)
	// closed because a write deadline expired — a dead or hopelessly
	// slow reader.
	StreamTimeouts atomic.Int64
	// FaultsInjected counts faults injected by an attached fault plan
	// (chaos testing only; zero in production).
	FaultsInjected atomic.Int64
	// Reconnects counts WebSocket clients that re-dialed after losing a
	// connection (Hello carried the reconnect flag).
	Reconnects atomic.Int64
	// ResumedSubscriptions counts event subscriptions re-established with
	// a resume token after a reconnect.
	ResumedSubscriptions atomic.Int64
	// DedupedPlays counts play rounds answered from the journal instead
	// of being re-executed, because a retried command's watermark showed
	// the round had already completed.
	DedupedPlays atomic.Int64
	// BreakerOpens counts per-session circuit-breaker trips after
	// repeated store failures.
	BreakerOpens atomic.Int64
	// BatchedPlays counts plays journaled through batch WAL records (the
	// PlayN path) rather than one record per play.
	BatchedPlays atomic.Int64
	// CommitEpochs counts group-commit fsync epochs flushed by the store's
	// committer (each by the append that led it).
	CommitEpochs atomic.Int64
	// Fsyncs counts WAL-handle fsyncs issued by group-commit epochs.
	Fsyncs atomic.Int64
}

// promMetric is one Prometheus exposition entry.
type promMetric struct {
	name string
	kind string // gauge | counter
	help string
	val  *atomic.Int64
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format (version 0.0.4).
func (c *Counters) WritePrometheus(w io.Writer) error {
	metrics := []promMetric{
		{"gameauthority_sessions", "gauge", "Currently hosted authority sessions.", &c.Sessions},
		{"gameauthority_sessions_created_total", "counter", "Sessions ever hosted.", &c.SessionsCreated},
		{"gameauthority_plays_total", "counter", "Completed plays across hosted sessions.", &c.Plays},
		{"gameauthority_fouls_total", "counter", "Judicial fouls observed in hosted plays.", &c.Fouls},
		{"gameauthority_convictions_total", "counter", "Guilty verdicts observed in hosted plays.", &c.Convictions},
		{"gameauthority_recoveries_total", "counter", "Sessions restored from the durable store.", &c.Recoveries},
		{"gameauthority_replayed_rounds_total", "counter", "Plays re-executed during recovery.", &c.ReplayedRounds},
		{"gameauthority_snapshots_total", "counter", "Compacted snapshots written to the store.", &c.Snapshots},
		{"gameauthority_wal_records_total", "counter", "Write-ahead-log records appended to the store.", &c.WALRecords},
		{"gameauthority_ws_connections", "gauge", "Live WebSocket connections.", &c.WSConnections},
		{"gameauthority_events_dropped_total", "counter", "Events dropped for slow streaming subscribers.", &c.EventsDropped},
		{"gameauthority_stream_timeouts_total", "counter", "Streaming connections closed by a write deadline.", &c.StreamTimeouts},
		{"gameauthority_faults_injected_total", "counter", "Faults injected by an attached fault plan.", &c.FaultsInjected},
		{"gameauthority_reconnects_total", "counter", "WebSocket clients re-dialing after a lost connection.", &c.Reconnects},
		{"gameauthority_resumed_subscriptions_total", "counter", "Event subscriptions re-established with a resume token.", &c.ResumedSubscriptions},
		{"gameauthority_deduped_plays_total", "counter", "Play rounds answered from the journal on retried commands.", &c.DedupedPlays},
		{"gameauthority_breaker_opens_total", "counter", "Per-session circuit-breaker trips on repeated store failures.", &c.BreakerOpens},
		{"gameauthority_batched_plays_total", "counter", "Plays journaled through batch WAL records (PlayN).", &c.BatchedPlays},
		{"gameauthority_commit_epochs_total", "counter", "Group-commit fsync epochs flushed by the committer.", &c.CommitEpochs},
		{"gameauthority_fsyncs_total", "counter", "WAL-handle fsyncs issued by group-commit epochs.", &c.Fsyncs},
	}
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.val.Load()); err != nil {
			return err
		}
	}
	return nil
}
