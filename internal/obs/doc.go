// Package obs is the dependency-free observability plane and the
// process's only metrics registry: fixed-bucket atomics-only latency
// histograms, integer counters and gauges, and scrape-time gauges, all
// exported by one Prometheus text writer, plus a ring-buffered sampled
// span tracer that dumps Chrome trace_event JSON.
//
// The package is built for hot paths that already carry pinned
// zero-allocation budgets: recording a histogram sample is three atomic
// adds on preallocated memory (0 allocs, gated by test), bumping a
// counter is one, and a disabled tracer costs one atomic load per span
// site. All aggregation cost — bucket cumulation, label rendering,
// runtime.MemStats — is paid at scrape/dump time, never on the play path.
//
// Metric series live in a Registry (package-level Default, which carries
// the Go runtime gauges from its construction). Histograms, counters and
// gauges are get-or-create by name+labels, so instrumentation sites in
// several packages share one process-wide series by name, and repeated
// Authority construction in tests accumulates into it instead of
// double-registering. Naming follows the repo convention enforced by the
// root TestMetricNames: every name carries the gameauthority_ prefix,
// counters end in _total, histograms in _seconds.
//
// See DESIGN.md §14 for the metric inventory and the span taxonomy.
package obs
