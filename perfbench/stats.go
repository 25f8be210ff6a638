package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean: the mean of the middle half of xs
// (all of xs when it has fewer than four values); xs is sorted in place.
func midMean(xs []float64) float64 {
	sort.Float64s(xs)
	return mean(xs[len(xs)/4 : len(xs)-len(xs)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// histogram counts non-negative samples in logarithmic buckets 0.5% wide,
// so its memory stays fixed however many samples a run takes. Quantiles
// interpolate by rank within a bucket.
type histogram struct {
	counts []uint64
	n      uint64
}

const (
	histBase  = 1.005
	histFloor = 1e-3 // samples below this share bucket 0
)

// histLow is the lower edge of bucket i.
func histLow(i int) float64 {
	if i == 0 {
		return 0
	}
	return histFloor * math.Pow(histBase, float64(i-1))
}

func (h *histogram) add(x float64) {
	i := 0
	if x > histFloor {
		i = int(math.Log(x/histFloor)/math.Log(histBase)) + 1
	}
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return histLow(len(h.counts))
}
