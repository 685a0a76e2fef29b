package obs

import (
	"runtime"
	"sync"
	"time"
)

// registerRuntimeGauges registers Go runtime health gauges (goroutines,
// heap, GC) into a registry; Default carries them from its construction.
// runtime.ReadMemStats stops the world briefly, so its result is cached
// for a second and shared by the memory-derived gauges: one scrape pays
// at most one read no matter how many series it renders.
func registerRuntimeGauges(r *Registry) {
	var (
		mu   sync.Mutex
		last time.Time
		ms   runtime.MemStats
	)
	mem := func(read func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			if last.IsZero() || time.Since(last) > time.Second {
				runtime.ReadMemStats(&ms)
				last = time.Now()
			}
			return read(&ms)
		}
	}
	r.GaugeFunc("gameauthority_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("gameauthority_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	r.GaugeFunc("gameauthority_heap_objects",
		"Number of allocated heap objects.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.HeapObjects) }))
	r.GaugeFunc("gameauthority_gc_cycles",
		"Completed GC cycles.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	r.GaugeFunc("gameauthority_gc_pause_total_seconds",
		"Cumulative GC stop-the-world pause time.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
}
