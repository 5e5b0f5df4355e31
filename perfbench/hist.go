package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 128 ns, then 128 sub-buckets per power of two (under 0.8% relative
// width). Recording never allocates, so the timed loop can keep one per
// client and call class.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = subCount + (64-subBits)*subCount
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return subCount + e*subCount + int(v>>e) - subCount
}

// bucketRange returns bucket b's lower bound and width in nanoseconds.
func bucketRange(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	e := (b - subCount) / subCount
	m := uint64(subCount + (b-subCount)%subCount)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the q-quantile in microseconds, interpolating
// linearly inside the bucket that holds it; 0 when empty.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return (lo + w*(rank-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return (lo + w) / 1e3
}

// span accumulates one layer boundary's calls: count and total time.
type span struct {
	n  int64
	ns int64
}

func (s *span) since(start time.Time) {
	s.n++
	s.ns += int64(time.Since(start))
}

func (s *span) add(o span) {
	s.n += o.n
	s.ns += o.ns
}

// meanUS is the mean span length in microseconds (0 when none ran).
func (s span) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e3
}
