package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is one bucket per possible bit length of a non-negative
// int64 (1 through 63) plus bucket 0 for zero; bucket i counts values v
// with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i.
const histBuckets = 64

// Hist is a bounded power-of-two-bucket histogram: fixed storage, O(1)
// Observe, exact count/sum/max. It is the right shape for latency and
// message-size distributions where the interesting signal is the order
// of magnitude and the tail. Updates are atomic, so a snapshot may be
// taken while a run is still observing. A nil *Hist is a no-op.
type Hist struct {
	count, sum, max atomic.Int64
	buckets         [histBuckets]atomic.Int64
}

// Observe adds value v (negative values clamp to 0).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is the exported form of a histogram: exact count, sum and
// max plus the bucket counts, trimmed at the last non-zero bucket.
// Buckets[i] counts observations v with bit length i (so bucket 0 is
// v==0 and bucket i covers [2^(i-1), 2^i)).
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

func (h *Hist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	last := -1
	for i := range h.buckets {
		if h.buckets[i].Load() != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = make([]int64, last+1)
		for i := 0; i <= last; i++ {
			s.Buckets[i] = h.buckets[i].Load()
		}
	}
	return s
}
