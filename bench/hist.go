package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-bucket histogram of non-negative int64 samples
// (nanoseconds throughout the harness). Values below 256 are exact; above,
// each power-of-two octave is cut into 128 buckets, so a bucket is at most
// 1/128 = 0.78% wide and a quantile read at the bucket midpoint is within
// 0.4% of the sample it stands for. Recording never allocates: the harness
// owns one hist per goroutine and round, preallocated at set-up (a growing
// sample slice was what made the rejected benchmark swing ±15%).
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // buckets per octave
	// 40 octaves above the exact range cover 2^48 ns (three days).
	histBuckets = (40 + 2) * histSub
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (histSubBits + 1)
	idx := shift*histSub + int(v>>uint(shift))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histValue returns the midpoint of bucket idx.
func histValue(idx int) float64 {
	if idx < 2*histSub {
		return float64(idx)
	}
	shift := idx/histSub - 1
	lo := int64(idx-shift*histSub) << uint(shift)
	return float64(lo) + float64(int64(1)<<uint(shift))/2
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// median returns the median of vs (0 for none); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}
