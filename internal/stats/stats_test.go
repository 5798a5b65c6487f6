package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatalf("zero summary not zero: %v", s.String())
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Population sd of this classic set is 2; sample sd is sqrt(32/7).
	if !almostEqual(s.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("sd = %v, want %v", s.StdDev(), math.Sqrt(32.0/7.0))
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	a.AddN(3.5, 4)
	for i := 0; i < 4; i++ {
		b.Add(3.5)
	}
	if a.Count() != b.Count() || !almostEqual(a.Mean(), b.Mean(), 1e-12) {
		t.Fatalf("AddN mismatch: %v vs %v", a.String(), b.String())
	}
}

func TestSummaryMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, left, right Summary
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*3 + 10
		all.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(&right)
	if left.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", left.Count(), all.Count())
	}
	if !almostEqual(left.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean %v != %v", left.Mean(), all.Mean())
	}
	if !almostEqual(left.Variance(), all.Variance(), 1e-9) {
		t.Errorf("merged var %v != %v", left.Variance(), all.Variance())
	}
	if left.Min() != all.Min() || left.Max() != all.Max() {
		t.Errorf("merged min/max differ")
	}
}

func TestSummaryMergeIntoEmpty(t *testing.T) {
	var a, b Summary
	b.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.Count() != 2 || !almostEqual(a.Mean(), 2, 1e-12) {
		t.Fatalf("merge into empty: %v", a.String())
	}
	var c Summary
	b.Merge(&c) // merging empty is a no-op
	if b.Count() != 2 {
		t.Fatalf("merge of empty changed count: %d", b.Count())
	}
}

func TestSummaryCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var small, big Summary
	for i := 0; i < 100; i++ {
		small.Add(rng.Float64())
	}
	for i := 0; i < 10000; i++ {
		big.Add(rng.Float64())
	}
	if big.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink with samples: %v vs %v", big.CI95(), small.CI95())
	}
}

func TestHistQuantilesExact(t *testing.T) {
	h := NewHist(16)
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := h.Quantile(1.0); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
	if got := h.Quantile(0.0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := h.Mean(); !almostEqual(got, 5.5, 1e-12) {
		t.Errorf("mean = %v, want 5.5", got)
	}
}

func TestHistOverflowExact(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int64{1, 2, 3, 100, 200} {
		h.Add(v)
	}
	if h.Max() != 200 {
		t.Errorf("max = %d, want 200", h.Max())
	}
	if got := h.Quantile(1.0); got != 200 {
		t.Errorf("p100 = %d, want 200", got)
	}
	if got := h.Quantile(0.8); got != 100 {
		t.Errorf("p80 = %d, want 100", got)
	}
	if !almostEqual(h.Mean(), 306.0/5.0, 1e-12) {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist(4)
	h.Add(-5)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample mishandled: %v", h.String())
	}
}

// Property: for any sample set, Quantile is monotone in q and brackets
// min/max.
func TestHistQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist(64)
		for _, v := range raw {
			h.Add(int64(v % 1000))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram mean equals the arithmetic mean of the samples.
func TestHistMeanProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist(8) // force plenty of overflow traffic
		var sum int64
		for _, v := range raw {
			h.Add(int64(v))
			sum += int64(v)
		}
		want := float64(sum) / float64(len(raw))
		return almostEqual(h.Mean(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	if c.Rate() != 0 {
		t.Fatalf("zero counter rate = %v", c.Rate())
	}
	for i := 0; i < 10; i++ {
		c.Tick(int64(i % 2)) // 5 events in 10 cycles
	}
	if !almostEqual(c.Rate(), 0.5, 1e-12) {
		t.Errorf("rate = %v, want 0.5", c.Rate())
	}
	c.AddEvents(5)
	if !almostEqual(c.Rate(), 1.0, 1e-12) {
		t.Errorf("rate after AddEvents = %v, want 1.0", c.Rate())
	}
}

// TestHistZeroSamples pins the zero-sample contract the live observability
// exporters rely on: a fresh histogram answers 0 for every figure rather
// than panicking or dividing by zero, so a snapshot taken before any
// packet has been delivered renders cleanly.
func TestHistZeroSamples(t *testing.T) {
	h := NewHist(8)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("zero-sample Quantile(0.5) = %d, want 0", got)
	}
	if got := h.Quantile(1.0); got != 0 {
		t.Errorf("zero-sample Quantile(1.0) = %d, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("zero-sample Mean = %v, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("zero-sample Sum = %d, want 0", got)
	}
}

// TestHistAllOverflowQuantiles drives every sample into the overflow
// bucket and checks the quantiles are still exact — the overflow list, not
// the bucket array, must answer.
func TestHistAllOverflowQuantiles(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int64{500, 100, 300, 200, 400} {
		h.Add(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.2, 100}, {0.4, 200}, {0.5, 300}, {0.6, 300}, {0.8, 400}, {1.0, 500},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("all-overflow Quantile(%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := h.Sum(); got != 1500 {
		t.Errorf("Sum = %d, want 1500", got)
	}
}

// TestHistSumTracksAdds checks Sum across in-range, overflow, and clamped
// negative samples.
func TestHistSumTracksAdds(t *testing.T) {
	h := NewHist(4)
	h.Add(2)
	h.Add(3)
	h.Add(100) // overflow
	h.Add(-7)  // clamped to 0
	if got := h.Sum(); got != 105 {
		t.Errorf("Sum = %d, want 105", got)
	}
	if want := 105.0 / 4.0; !almostEqual(h.Mean(), want, 1e-12) {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
}

// TestHistBoundaryValueLandsInOverflow pins where the bound itself goes:
// NewHist(bound) has exact buckets for [0, bound), so a sample equal to
// bound is overflow and must still quantile exactly.
func TestHistBoundaryValueLandsInOverflow(t *testing.T) {
	h := NewHist(4)
	h.Add(3) // last exact bucket
	h.Add(4) // first overflow value
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %d, want 3", got)
	}
	if got := h.Quantile(1.0); got != 4 {
		t.Errorf("Quantile(1.0) = %d, want 4", got)
	}
	if got := h.Max(); got != 4 {
		t.Errorf("Max = %d, want 4", got)
	}
}

// TestHistOverflowedFlag is the regression gate for the overflow
// surface: the flag is off while every sample fits the exact buckets,
// flips on the first boundary-value sample, quantiles at the boundary
// stay exact (the documented contract: overflow values are retained
// individually, never clamped).
func TestHistOverflowedFlag(t *testing.T) {
	h := NewHist(8)
	for v := int64(0); v < 8; v++ {
		h.Add(v)
	}
	if h.Overflowed() {
		t.Fatal("Overflowed() true with every sample inside the bound")
	}
	h.Add(8) // exactly the bound: first overflow value
	if !h.Overflowed() {
		t.Fatal("Overflowed() false after a boundary-value sample")
	}
	if got := h.Quantile(1.0); got != 8 {
		t.Errorf("Quantile(1.0) = %d, want exact 8", got)
	}
	h.Add(1 << 30)
	if got := h.Quantile(1.0); got != 1<<30 {
		t.Errorf("Quantile(1.0) = %d, want exact 2^30", got)
	}
	// The overflow rank walk still interpolates between retained values:
	// rank 9 of 10 is the smaller overflow value, not the maximum.
	if got := h.Quantile(0.9); got != 8 {
		t.Errorf("Quantile(0.9) = %d, want 8 (first overflow rank)", got)
	}
}
