package main

import "math/bits"

// hist is a fixed-bucket latency histogram over nanoseconds: values below
// 2^histSubBits are counted exactly, larger ones fall into one of
// 2^histSubBits sub-buckets per power of two, so a reported quantile is
// within 1/2^(histSubBits+1) ≈ 0.4 % of a recorded value. Every bucket is
// allocated up front — the benchmark preallocates one per client per
// window so that recording a latency never touches the heap and
// allocs_per_play / live_heap_mb measure the program, not the recorder.
// A hist is written by one goroutine; merge combines them afterwards.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps the range at 2^40 ns (≈ 18 min); anything slower
	// lands in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // ns in [2^exp, 2^(exp+1))
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := (ns >> (exp - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	exp := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	width := uint64(1) << (exp - histSubBits)
	lo = uint64(1)<<exp + sub*width
	return lo, lo + width
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// valueAtRank returns the midpoint of the bucket holding the rank-th
// smallest sample (1-based).
func (h *hist) valueAtRank(rank uint64) float64 {
	if h.n == 0 {
		return 0
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	return 0
}

// quantile returns the q-quantile in nanoseconds (nearest-rank).
func (h *hist) quantile(q float64) float64 {
	rank := uint64(q*float64(h.n) + 0.999999)
	return h.valueAtRank(rank)
}

// tail returns the highest percentile that still has ten samples beyond
// it — the tail figure the choosing-metrics guide asks for — and the
// percentile it corresponds to (0 when there are not enough samples).
func (h *hist) tail() (ns, pct float64) {
	if h.n <= 10 {
		return h.valueAtRank(h.n), 0
	}
	rank := h.n - 10
	return h.valueAtRank(rank), 100 * float64(rank) / float64(h.n)
}
