package quadrature

import (
	"math"
	"testing"
)

// wiggly is an integrand adversarial enough to force uneven refinement:
// a narrow peak plus oscillation, so the adaptive partition is deep on the
// left and shallow on the right.
func wiggly(x float64) float64 {
	return 1/(1e-3+x*x) + math.Sin(40*x)
}

// TestIterativeAdaptiveSimpsonEvaluationOrder pins that IntegrateReuse
// first probes the integrand at exactly the abscissae the recursion
// probes, in the same order: it skips the recursion's repeat probes but
// never reorders a new one, so integrands with state keyed on first-seen
// radii (the evaluator's radial memo) behave identically.
func TestIterativeAdaptiveSimpsonEvaluationOrder(t *testing.T) {
	firstSeen := func(log *[]float64) Func {
		seen := map[float64]bool{}
		return func(x float64) float64 {
			if !seen[x] {
				seen[x] = true
				*log = append(*log, x)
			}
			return wiggly(x)
		}
	}
	var recLog, iterLog []float64
	AdaptiveSimpson(firstSeen(&recLog), 0, 2, 1e-7, 30)
	var ws AdaptiveWorkspace
	ws.IntegrateReuse(firstSeen(&iterLog), 0, 2, 1e-7, 30, nil)
	if len(recLog) != len(iterLog) {
		t.Fatalf("distinct abscissae %d != %d", len(iterLog), len(recLog))
	}
	for i := range recLog {
		if recLog[i] != iterLog[i] {
			t.Fatalf("new abscissa %d at %v, recursion at %v", i, iterLog[i], recLog[i])
		}
	}
}

// TestIntegrateReuseBitwiseIdentical holds the iterative, panel-value-
// reusing integrator to the recursive reference: identical integral,
// error, reported evaluation count and partition, for smooth, oscillatory,
// depth-limited and empty intervals.
func TestIntegrateReuseBitwiseIdentical(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		depth     int
	}{
		{0, 1, 1e-8, 30},
		{-0.3, 2.7, 1e-6, 30},
		{0, 4, 1e-10, 8}, // depth-limited: accepts over-tolerance panels
		{1, 1, 1e-8, 30}, // empty interval
	}
	var ws AdaptiveWorkspace
	for _, c := range cases {
		want := AdaptiveSimpson(wiggly, c.a, c.b, c.tol, c.depth)
		got, part := ws.IntegrateReuse(wiggly, c.a, c.b, c.tol, c.depth, []float64{c.a})
		if got.I != want.I || got.Err != want.Err || got.Evals != want.Evals {
			t.Fatalf("[%g,%g] tol=%g: reuse (I=%v Err=%v Evals=%d) != recursive (I=%v Err=%v Evals=%d)",
				c.a, c.b, c.tol, got.I, got.Err, got.Evals, want.I, want.Err, want.Evals)
		}
		if len(part) != len(want.Partition) {
			t.Fatalf("[%g,%g]: partition length %d != %d", c.a, c.b, len(part), len(want.Partition))
		}
		for i := range part {
			if part[i] != want.Partition[i] {
				t.Fatalf("[%g,%g]: partition[%d] = %v != %v", c.a, c.b, i, part[i], want.Partition[i])
			}
		}
	}
}

// TestIntegrateReuseCallsEachAbscissaOnce pins the point of the variant:
// the integrand is invoked exactly once per distinct abscissa — the
// refinement's endpoint/midpoint re-probes are served from frame state —
// while the reported Evals still counts the nominal five per panel.
func TestIntegrateReuseCallsEachAbscissaOnce(t *testing.T) {
	seen := map[float64]int{}
	calls := 0
	f := func(x float64) float64 {
		seen[x]++
		calls++
		return wiggly(x)
	}
	var ws AdaptiveWorkspace
	est, _ := ws.IntegrateReuse(f, 0, 2, 1e-7, 30, nil)
	for x, n := range seen {
		if n != 1 {
			t.Fatalf("abscissa %v evaluated %d times, want 1", x, n)
		}
	}
	if calls >= est.Evals {
		t.Fatalf("reuse made %d calls for %d nominal evals — no reuse happened", calls, est.Evals)
	}
	// Panels = Evals/5; distinct abscissae = 3 + 2 per panel.
	if want := 3 + 2*est.Evals/5; calls != want {
		t.Fatalf("reuse made %d calls, want %d (3 + 2 per panel)", calls, want)
	}
}

// TestIntegrateReuseReusesStack pins the steady-state zero-allocation
// contract: once the stack has grown, an integration allocates nothing.
func TestIntegrateReuseReusesStack(t *testing.T) {
	var ws AdaptiveWorkspace
	part := make([]float64, 0, 4096)
	ws.IntegrateReuse(wiggly, 0, 1, 1e-8, 30, part[:0]) // grow the stack
	allocs := testing.AllocsPerRun(50, func() {
		ws.IntegrateReuse(wiggly, 0, 1, 1e-8, 30, part[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state IntegrateReuse allocates %.1f objects", allocs)
	}
}

func TestAppendWeightsMatchesNewtonCotes(t *testing.T) {
	for _, o := range []NewtonCotesOrder{Trapezoid, Simpson, Simpson38, Boole} {
		w := o.AppendWeights(nil)
		if len(w) != o.Points() {
			t.Fatalf("order %d: %d weights, want %d", o, len(w), o.Points())
		}
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Fatalf("order %d: weights sum to %v", o, sum)
		}
	}
}
