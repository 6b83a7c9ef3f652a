package obs

import "sync/atomic"

// hist.go implements the fixed-bucket histogram: cumulative-style
// observation counting against a sorted slice of upper bounds, with a
// final implicit +Inf bucket. Observations are int64 so one type
// covers both latencies (nanoseconds) and sizes (bytes); the bucket
// helpers below pick sensible exponential grids for each.

// Histogram counts observations into fixed buckets. Observe is a
// lock-free linear scan + atomic add — the bucket count is small and
// fixed, so the scan beats any locking scheme. A nil *Histogram
// records nothing.
type Histogram struct {
	bounds []int64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given bucket upper bounds.
// Bounds must be ascending; an empty slice yields a histogram with
// only the +Inf bucket (still useful for count/sum/mean).
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// snapshot returns consistent-enough copies of the bucket state for
// exposition (individual loads are atomic; a scrape racing an
// observation may be off by one event, which every scrape-based
// system tolerates).
func (h *Histogram) snapshot() (bounds []int64, counts []uint64, sum int64, count uint64) {
	if h == nil {
		return nil, nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts, h.sum.Load(), h.count.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound of
// the bucket containing it — the standard fixed-bucket estimate.
// Returns 0 when empty; observations in the +Inf bucket report the
// largest finite bound (or 0 when there are no finite bounds).
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	bounds, counts, _, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// LatencyBuckets returns the standard exponential latency grid in
// nanoseconds: 1µs doubling up to ~8.6s (24 buckets).
func LatencyBuckets() []int64 {
	out := make([]int64, 24)
	v := int64(1000)
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}
