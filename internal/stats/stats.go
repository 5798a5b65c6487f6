// Package stats provides the measurement primitives used throughout the
// simulator: streaming summaries, integer histograms with quantiles, rate
// counters, and simple confidence intervals.
//
// All types are plain values with deterministic behaviour; none of them
// allocate per-sample after construction, so they are safe to use in the
// inner loop of a cycle-accurate simulation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 samples using Welford's online
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN records the same sample value n times.
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Count reports the number of samples recorded.
func (s *Summary) Count() int64 { return s.n }

// Mean reports the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min reports the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// Variance reports the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr reports the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 reports the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// Merge folds the samples summarised by other into s.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// String formats the summary for reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Hist is a histogram over non-negative integer samples (cycle counts,
// hop counts, queue depths). Samples beyond the configured bound land in
// an overflow bucket that still contributes exactly to mean and quantiles
// via a recorded list of overflow values.
type Hist struct {
	buckets  []int64
	overflow []int64 // exact values >= len(buckets)
	n        int64
	sum      int64
}

// NewHist returns a histogram with exact buckets for values in [0, bound).
func NewHist(bound int) *Hist {
	if bound < 1 {
		bound = 1
	}
	return &Hist{buckets: make([]int64, bound)}
}

// Add records one integer sample. Negative samples are clamped to 0.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += v
	if v < int64(len(h.buckets)) {
		h.buckets[v]++
	} else {
		h.overflow = append(h.overflow, v)
	}
}

// Count reports the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Mean reports the sample mean.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Sum reports the total of all recorded samples, for exporters that need
// a cumulative figure (the Prometheus summary's _sum).
func (h *Hist) Sum() int64 { return h.sum }

// Max reports the largest recorded sample.
func (h *Hist) Max() int64 {
	if len(h.overflow) > 0 {
		m := h.overflow[0]
		for _, v := range h.overflow {
			if v > m {
				m = v
			}
		}
		return m
	}
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i] > 0 {
			return int64(i)
		}
	}
	return 0
}

// Overflowed reports whether any sample landed at or beyond the exact
// bucket bound. Quantiles stay exact either way — overflow values are
// retained individually — but exporters surface the flag so a
// distribution whose tail escaped the configured bound is never
// mistaken for one that stayed inside it.
func (h *Hist) Overflowed() bool { return len(h.overflow) > 0 }

// Quantile reports the q-quantile (0 <= q <= 1) of the recorded samples.
// It is exact: overflow samples are retained individually.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return int64(i)
		}
	}
	// The rank falls inside the overflow values.
	ov := append([]int64(nil), h.overflow...)
	sort.Slice(ov, func(i, j int) bool { return ov[i] < ov[j] })
	idx := rank - seen - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(len(ov)) {
		idx = int64(len(ov)) - 1
	}
	return ov[idx]
}

// Median is Quantile(0.5).
func (h *Hist) Median() int64 { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Hist) P99() int64 { return h.Quantile(0.99) }

// String formats the histogram headline numbers.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%d p99=%d max=%d",
		h.n, h.Mean(), h.Median(), h.P99(), h.Max())
}

// Counter tracks an event count over a known number of cycles, yielding a
// rate such as a shared bus's utilization.
type Counter struct {
	events int64
	cycles int64
}

// Tick advances the observation window by one cycle, recording n events.
func (c *Counter) Tick(n int64) {
	c.cycles++
	c.events += n
}

// AddEvents records events without advancing the window.
func (c *Counter) AddEvents(n int64) { c.events += n }

// Rate reports events per cycle.
func (c *Counter) Rate() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.events) / float64(c.cycles)
}
