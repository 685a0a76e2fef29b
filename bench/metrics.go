package main

import (
	"runtime"

	ga "gameauthority"
)

// metricDef names one metric. The names and units here are what the
// program prints; BENCHMARK.json repeats them (a test holds the two
// together) and adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound, for an end-to-end metric, is the share of the parent's median
	// by which a change may worsen it before that counts as a regression.
	Bound float64
}

// The timing metrics carry the widest bound the benchmark contract allows,
// because that is what the reference host's own drift demands: back-to-back
// runs of one commit spread by up to 24 % (interquartile, README.md
// "Baseline") as the host moves, over minutes, between faster and slower
// spells that no statistic taken inside a 20 s run can see past. The two counts repeat to
// a tenth of a percent and keep tight bounds.
var endToEndDefs = []metricDef{
	{mPlaysPerS, "1/s", "higher", 0.25},
	{mReqP50, "us", "lower", 0.25},
	{mReqP90, "us", "lower", 0.25},
	{mCPUPerPlay, "us", "lower", 0.25},
	{mAllocsPerPly, "count", "lower", 0.02},
	{mLiveHeapMB, "MB", "lower", 0.05},
	{mSetupS, "s", "lower", 0.25},
}

// perLayerDefs lists the per-layer rows in the order the table prints
// them; the part of a name before the dot is the module it measures.
var perLayerDefs = []metricDef{
	{"game.compile_us", "us", "lower", 0},
	{"game.best_response_ns", "ns", "lower", 0},
	{"commit.commit_ns", "ns", "lower", 0},
	{"commit.verify_ns", "ns", "lower", 0},
	{"audit.per_round_ns", "ns", "lower", 0},
	{"punish.step_ns", "ns", "lower", 0},
	{"core.pure_play_ns", "ns", "lower", 0},
	{"core.dist_play_n4_us", "us", "lower", 0},
	{"core.dist_play_n7_us", "us", "lower", 0},
	{"core.pulses_per_play", "count", "lower", 0},
	{"core.messages_per_play", "count", "lower", 0},
	{"core.restore_us_per_round", "us", "lower", 0},
	{"bap.ic_phase_n4_us", "us", "lower", 0},
	{"bap.ic_phase_n7_us", "us", "lower", 0},
	{"trace.pulse_dolev_strong_us_per_play", "us", "lower", 0},
	{"trace.pulse_eig_resolve_us_per_play", "us", "lower", 0},
	{"clocksync.step_ns", "ns", "lower", 0},
	{"trace.pulse_clock_sync_us_per_play", "us", "lower", 0},
	{"sim.step_lockstep_n4_us", "us", "lower", 0},
	{"sim.step_pool_n4_us", "us", "lower", 0},
	{"sim.step_lockstep_n7_us", "us", "lower", 0},
	{"sim.step_pool_n7_us", "us", "lower", 0},
	{"wire.play_encode_ns", "ns", "lower", 0},
	{"wire.play_decode_ns", "ns", "lower", 0},
	{"wire.result_encode_ns", "ns", "lower", 0},
	{"wire.result_decode_ns", "ns", "lower", 0},
	{"wire.result_bytes", "B", "lower", 0},
	{"hub.noop_rtt_us", "us", "lower", 0},
	{"hub.shard_submit_ns", "ns", "lower", 0},
	{"hub.server_roundtrip_p50_us", "us", "lower", 0},
	{"hub.queue_depth_max", "count", "lower", 0},
	{"authority.create_us", "us", "lower", 0},
	{"authority.get_ns", "ns", "lower", 0},
	{"authority.hosted_play_overhead_ns", "ns", "lower", 0},
	{"durability.journal_overhead_us", "us", "lower", 0},
	{"durability.recover_session_us", "us", "lower", 0},
	{"store.file_append_us", "us", "lower", 0},
	{"store.file_append_batch16_us", "us", "lower", 0},
	{"store.mem_append_ns", "ns", "lower", 0},
	{"store.gc_lone_append_wait_us", "us", "lower", 0},
	{"store.load_session_us", "us", "lower", 0},
	{"store.put_snapshot_us", "us", "lower", 0},
	{"store.wal_records_per_kplay", "count", "lower", 0},
	{"store.snapshots_per_kplay", "count", "lower", 0},
	{"store.epochs_per_kplay", "count", "lower", 0},
	{"store.fsyncs_per_kplay", "count", "lower", 0},
	{"store.tickets_per_epoch", "count", "higher", 0},
	{"store.wal_bytes_per_play", "B", "lower", 0},
	{"trace.wal_append_us_per_play", "us", "lower", 0},
	{"trace.commit_epoch_us_per_play", "us", "lower", 0},
	{"server.http_play_us", "us", "lower", 0},
	{"server.http_create_us", "us", "lower", 0},
	{"server.metrics_scrape_us", "us", "lower", 0},
	{"obs.hist_record_ns", "ns", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"runtime.gc_cycles_per_kplay", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.bytes_per_play", "B", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},
	{"client.req_p99_us", "us", "lower", 0},
	{"client.req_pmax_us", "us", "lower", 0},
	{"client.window_spread_pct", "%", "lower", 0},
	{"client.steal_pct", "%", "lower", 0},
	{"trace.covered_pct", "%", "higher", 0},
	{"trace.unattributed_us_per_play", "us", "lower", 0},
}

// layerDef returns a per-layer metric's definition. A name that is not
// declared is a bug in the benchmark: BENCHMARK.json would not list it.
func layerDef(name string) metricDef {
	for _, def := range perLayerDefs {
		if def.Name == name {
			return def
		}
	}
	panic("bench: " + name + " is not a declared per-layer metric")
}

// reconcile adds the ROADMAP's "layer rows reconcile with the end-to-end
// row" check to a workload's layer rows: the layer times a play is known
// to pay, times how often it pays them, as a share of the CPU a play
// actually cost in the traced run. Rows timed directly are held against
// the fastest untraced window's CPU per play; rows summed from spans were
// taken with tracing on — which costs, and on two cores contends for the
// tracer's lock — so they are held against the fastest traced window's.
// What the model leaves out — the drivers' own bookkeeping, parking on the
// commit epoch, the scheduler, the collector — is the unattributed
// remainder. Reported, never gated.
func reconcile(workload string, layer map[string]float64, cpuUntracedUs, cpuTracedUs float64) {
	us := func(name string) float64 { return layer[name] } // a _us row
	ns := func(name string) float64 { return layer[name] / 1e3 }
	var timed, spans float64
	switch workload {
	case wlWSPure:
		// The transport's floor, the bare play, and what hosting adds.
		timed = us("hub.noop_rtt_us") + ns("core.pure_play_ns") + ns("authority.hosted_play_overhead_ns")
	case wlInprocDist:
		// The pulse spans cover agreement and clock sync; the simulator's
		// share is a pulse's cost minus the clock steps inside it, on the
		// engine the default selects here; each processor commits once and
		// audits the agreed play.
		engine := "sim.step_lockstep_"
		if runtime.GOMAXPROCS(0) > 1 {
			engine = "sim.step_pool_"
		}
		net := func(suffix string, n, f int) float64 {
			step := us(engine+suffix+"_us") - float64(n)*ns("clocksync.step_ns")
			if step < 0 {
				step = 0
			}
			judicial := float64(n) * (ns("commit.commit_ns") + ns("audit.per_round_ns")*float64(n)/4)
			return float64(ga.PulsesPerPlay(f))*step + judicial
		}
		spans = us("trace.pulse_dolev_strong_us_per_play") + us("trace.pulse_eig_resolve_us_per_play") +
			us("trace.pulse_clock_sync_us_per_play")
		timed = ns("authority.hosted_play_overhead_ns") + 0.75*net("n4", 4, 1) + 0.25*net("n7", 7, 2)
	case wlDurableBatch:
		// Per round of a 16-round batch: the play, the journal work above
		// the store, the file append in place of the in-memory one, the
		// periodic compaction, and the commit epochs.
		timed = ns("core.pure_play_ns") +
			(us("durability.journal_overhead_us")-ns("store.mem_append_ns")+us("store.file_append_batch16_us"))/batchRounds +
			us("store.put_snapshot_us")*layer["store.snapshots_per_kplay"]/1000
		spans = us("trace.commit_epoch_us_per_play")
	case wlRecover:
		// Per replayed round: the replay itself and the session's load.
		timed = us("core.restore_us_per_round") + us("store.load_session_us")/recoverRounds
	}
	layer["trace.covered_pct"], layer["trace.unattributed_us_per_play"] = 0, 0
	if cpuUntracedUs > 0 && cpuTracedUs > 0 {
		covered := timed/cpuUntracedUs + spans/cpuTracedUs
		layer["trace.covered_pct"] = 100 * covered
		layer["trace.unattributed_us_per_play"] = cpuUntracedUs * (1 - covered)
	}
}
