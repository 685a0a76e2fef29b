package obs

import "sync/atomic"

// Int is an integer series: a monotonic counter (plays, WAL records,
// dropped events) or a gauge (live connections), rendered with its
// registered TYPE. Mutations are single atomic ops, safe on hot paths.
// Construct through Registry.Counter / Registry.Gauge or obs.NewCounter /
// obs.NewGauge.
type Int struct {
	name   string
	labels []Label

	v atomic.Int64
}

// Add adjusts the series by delta.
func (s *Int) Add(delta int64) { s.v.Add(delta) }

// Inc adds one.
func (s *Int) Inc() { s.v.Add(1) }

// Dec subtracts one (gauges only).
func (s *Int) Dec() { s.v.Add(-1) }

// Value reports the current value.
func (s *Int) Value() int64 { return s.v.Load() }

// gaugeFunc is a scrape-time sampled gauge: fn runs once per
// WritePrometheus, so the instrumented structure pays nothing between
// scrapes (used for queue depths, per-shard session counts, runtime
// stats).
type gaugeFunc struct {
	name   string
	labels []Label

	fn func() float64
}
