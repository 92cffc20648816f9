package obs

import (
	"math"
	"strings"
	"testing"
)

// snap builds a snapshot of a live histogram with the given bounds after
// observing vals, exercising the same bucketing the registry uses.
func snap(t *testing.T, bounds []float64, vals ...float64) HistogramSnapshot {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("h", bounds)
	for _, v := range vals {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	return s.Histograms[0]
}

func TestQuantileExactOnUniformBucketFill(t *testing.T) {
	// One observation per unit bucket: the empirical distribution is
	// uniform on [0, 10], where linear interpolation is exact; the
	// extremes clamp to the observed min 0.5 and max 9.5.
	bounds := LinearBuckets(1, 1, 10) // 1..10
	var vals []float64
	for i := 0; i < 10; i++ {
		vals = append(vals, float64(i)+0.5)
	}
	h := snap(t, bounds, vals...)
	for _, tc := range []struct{ q, want float64 }{
		{0, 0.5}, {0.1, 1}, {0.25, 2.5}, {0.5, 5}, {0.75, 7.5}, {0.9, 9}, {1, 9.5},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileSingleBucketInterpolates(t *testing.T) {
	// All mass in one [0, 10] bucket: the interpolation gives 10q
	// regardless of where inside the bucket the observations actually
	// sat, clamped into the observed range [1, 4].
	h := snap(t, []float64{10}, 1, 2, 3, 4)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		if got, want := h.Quantile(q), math.Min(10*q, 4); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

func TestQuantileWithinBucketWidthOfExact(t *testing.T) {
	// A skewed sample against moderately coarse buckets: the estimate
	// must land within the width of the bucket holding the true value.
	bounds := ExpBuckets(0.001, 2, 16)
	var vals []float64
	for i := 1; i <= 200; i++ {
		vals = append(vals, 0.001*math.Pow(1.05, float64(i)))
	}
	h := snap(t, bounds, vals...)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		// The containing bucket's width bounds the interpolation error.
		i := 0
		for i < len(bounds) && bounds[i] < exact {
			i++
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		width := bounds[min(i, len(bounds)-1)] - lo
		if math.Abs(got-exact) > width {
			t.Errorf("Quantile(%g) = %g, exact %g, off by more than bucket width %g", q, got, exact, width)
		}
	}
}

func TestQuantileOverflowClipsToLargestBound(t *testing.T) {
	// The overflow bucket clips to the largest finite bound 2 ...
	h := snap(t, []float64{1, 2}, 1.5, 5, 6, 7)
	for _, q := range []float64{0.5, 1} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("Quantile(%g) = %g, want largest finite bound 2", q, got)
		}
	}
	// ... which the clamp raises to the minimum when every observation
	// overflowed.
	h = snap(t, []float64{1, 2}, 5, 6, 7)
	for _, q := range []float64{0.5, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Errorf("all-overflow Quantile(%g) = %g, want min 5", q, got)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %g, want NaN", got)
	}
	// No finite bounds: only the +Inf bucket exists.
	if got := snap(t, nil, 1, 2).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("unbounded histogram Quantile = %g, want NaN", got)
	}
	// Out-of-range q clamps to [0, 1], and the estimate to [min, max].
	h := snap(t, []float64{1, 2}, 0.5, 1.5)
	if got := h.Quantile(-1); got != 0.5 {
		t.Errorf("Quantile(-1) = %g, want min 0.5", got)
	}
	if got := h.Quantile(2); got != 1.5 {
		t.Errorf("Quantile(2) = %g, want max 1.5", got)
	}
	// Negative-bound first bucket returns the bound unsplit (no zero
	// lower edge to interpolate from), clamped into [min, max].
	if got := snap(t, []float64{-1, 1}, -2, -0.5).Quantile(0.5); got != -1 {
		t.Errorf("negative first bucket Quantile = %g, want -1", got)
	}
}

func TestQuantileClampedToObservedRange(t *testing.T) {
	// One observation of 3 in a [0, 10] bucket: every quantile is 3.
	h := snap(t, []float64{10}, 3)
	if h.Min != 3 || h.Max != 3 {
		t.Fatalf("snapshot min/max = %g/%g, want 3/3", h.Min, h.Max)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("Quantile(%g) = %g, want 3", q, got)
		}
	}
	// A skewed fill whose top values share a wide bucket: interpolation
	// alone would put p95 and p99 above the largest observation.
	vals := []float64{300, 320, 350, 380, 400, 420, 457.6}
	h = snap(t, ExpBuckets(1, 2, 12), vals...)
	if h.Min != 300 || h.Max != 457.6 {
		t.Fatalf("snapshot min/max = %g/%g, want 300/457.6", h.Min, h.Max)
	}
	if raw := h.interpolate(0.95); raw <= h.Max {
		t.Fatalf("fixture does not exercise the clamp: unclamped p95 %g <= max %g", raw, h.Max)
	}
	prev := h.Min
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < prev || got > h.Max {
			t.Errorf("Quantile(%g) = %g outside [%g, max %g]", q, got, prev, h.Max)
		}
		prev = got
	}
	// An empty histogram snapshots min and max as 0 (JSON-safe).
	if e := snap(t, []float64{1}); e.Min != 0 || e.Max != 0 {
		t.Errorf("empty snapshot min/max = %g/%g, want 0/0", e.Min, e.Max)
	}
}

func TestTableShowsQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LinearBuckets(1, 1, 10))
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	tbl := r.Snapshot().Table()
	for _, want := range []string{"p50 5", "p95 9.5"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}
