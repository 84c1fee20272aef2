package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram accumulates non-negative int64 observations (typically
// nanoseconds or sizes) into power-of-two exponential buckets. All updates
// are single atomic operations — no locks on the observe path — at the cost
// of quantiles that are exact only to within a factor of two (reported as
// the geometric bucket midpoint).
//
// Bucket b (b ≥ 1) holds values v with 2^(b-1) ≤ v < 2^b; bucket 0 holds
// v ≤ 0.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min; races with concurrent first
		// observers are resolved by the CAS loops below.
		h.min.Store(v)
	}
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`

	// Buckets holds the raw per-bucket counts, trimmed after the last
	// non-zero bucket. Buckets[0] counts observations v ≤ 0; Buckets[b]
	// (b ≥ 1) counts 2^(b-1) ≤ v < 2^b.
	Buckets []int64 `json:"buckets,omitempty"`
}

// bucketMid returns the representative value for bucket idx: the midpoint
// of [2^(idx-1), 2^idx).
func bucketMid(idx int) int64 {
	if idx == 0 {
		return 0
	}
	lo := int64(1) << uint(idx-1)
	return lo + lo/2
}

// snapshot summarizes the histogram. Concurrent observes may skew the
// quantiles of an in-flight snapshot by a few counts; totals remain
// self-consistent enough for reporting.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	last := -1
	var counts [65]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), counts[:last+1]...)
	}
	quantile := func(q float64) int64 {
		target := int64(q * float64(s.Count))
		if target < 1 {
			target = 1
		}
		var cum int64
		for i := range counts {
			cum += counts[i]
			if cum >= target {
				return bucketMid(i)
			}
		}
		return s.Max
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	return s
}
