package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"beamdyn/internal/grid"
	"beamdyn/internal/obs"
)

func TestQuantileExact(t *testing.T) {
	odd := []float64{7, 1, 3, 9, 5}
	even := []float64{4, 1, 3, 2}
	skew := []float64{1, 1, 1, 1, 100}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{odd, 0, 1}, {odd, 0.25, 3}, {odd, 0.5, 5}, {odd, 0.75, 7}, {odd, 0.9, 8.2}, {odd, 1, 9},
		{even, 0.5, 2.5}, {even, 0.25, 1.75},
		{skew, 0.5, 1}, {skew, 0.95, 80.2},
		{[]float64{42}, 0.5, 42}, {[]float64{42}, 0.99, 42},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if odd[0] != 7 {
		t.Error("quantile reordered its input")
	}
	for _, xs := range [][]float64{odd, even, skew} {
		lo, hi := quantile(xs, 0), quantile(xs, 1)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if v := quantile(xs, q); v < lo || v > hi {
				t.Errorf("quantile(%v, %g) = %g outside [%g, %g]", xs, q, v, lo, hi)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestCompareSettlesDisputedPoints(t *testing.T) {
	ref := grid.New(2, 2, 1, 0, 0, 1, 1)
	copy(ref.Data, []float64{1, 0.5, 0.25, 0})
	calls := 0
	conv := func(want float64) func(x, y float64) float64 {
		return func(x, y float64) float64 {
			calls++
			if x != 1 || y != 0 {
				t.Errorf("converged solve at (%g, %g), want only the disputed (1, 0)", x, y)
			}
			return want
		}
	}

	// Within rpTol everywhere: the reference stands, nothing is solved.
	a := compare([]float64{1.01, 0.5, 0.25, 0}, ref, conv(0))
	if !a.ok() || a.disputed != 0 || calls != 0 || math.Abs(a.relErr-0.01) > 1e-12 {
		t.Errorf("agreeing kernel: %+v ok=%v, %d converged solves", a, a.ok(), calls)
	}

	// Point (1, 0) is 10% of peak off the reference; the converged value
	// sides with the kernel, so the reference stopped early.
	kernel := []float64{1, 0.6, 0.25, 0}
	a = compare(kernel, ref, conv(0.59))
	if !a.ok() || a.disputed != 1 || calls != 1 ||
		math.Abs(a.relErr-0.1) > 1e-12 || math.Abs(a.kernErr-0.01) > 1e-12 || math.Abs(a.refErr-0.09) > 1e-12 {
		t.Errorf("kernel right at a disputed point: %+v ok=%v", a, a.ok())
	}

	// The converged value sides with the reference: the kernel fails.
	if a = compare(kernel, ref, conv(0.5)); a.ok() {
		t.Errorf("kernel wrong at a disputed point passed: %+v", a)
	}

	// A non-finite kernel value fails whatever the converged solve says.
	if a = compare([]float64{1, math.NaN(), 0.25, 0}, ref, conv(0.5)); a.ok() {
		t.Errorf("NaN kernel passed: %+v", a)
	}
}

// emit adds a span that ran over [start, end] to the sink.
func emit(s *obs.MemorySink, name, id, parent string, start, end float64) {
	s.Emit(obs.Event{Kind: "span", Name: name, Span: id, Parent: parent, TS: end, Dur: end - start})
}

func TestBreakdownSelfTimesAndLayerSum(t *testing.T) {
	var sink obs.MemorySink
	// One benchmark step [0, 10]: the program's advance span [0.5, 9.5]
	// with four stages; potentials [3, 8] holds two kernel phases.
	emit(&sink, "advance/deposit", "d", "a", 1, 3)
	emit(&sink, "predictive/verify", "v", "p", 3.5, 6)
	emit(&sink, "predictive/fallback", "f", "p", 6, 7)
	emit(&sink, "advance/potentials", "p", "a", 3, 8)
	emit(&sink, "advance/forces", "fo", "a", 8, 8.5)
	emit(&sink, "advance/push", "pu", "a", 8.5, 9)
	emit(&sink, "advance", "a", "b", 0.5, 9.5)
	emit(&sink, "bench/advance", "b", "", 0, 10)
	roots, err := spanTree(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].name != "bench/advance" {
		t.Fatalf("roots = %v", roots)
	}
	lt := breakdown(roots)
	want := map[string]float64{
		"core.advance_ms":         10e3,
		"core.unattributed_ms":    2e3, // [0,1] and [9,10]
		"grid.deposit_ms":         2e3,
		"core.potentials_ms":      5e3,
		"core.potentials_self_ms": 1.5e3,
		"kernels.fixed_ms":        2.5e3,
		"kernels.adaptive_ms":     1e3,
		"core.forces_ms":          0.5e3,
		"particles.push_ms":       0.5e3,
	}
	for k, v := range want {
		if got := lt.perStep[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}
	if len(lt.sumBad) != 1 || lt.sumBad[0] {
		t.Errorf("layer sum flagged a consistent step: %v", lt.sumBad)
	}

	// Overlapping stages double-count time: the layer sum must catch it.
	var bad obs.MemorySink
	emit(&bad, "advance/deposit", "d", "a", 0, 6)
	emit(&bad, "advance/push", "pu", "a", 4, 10)
	emit(&bad, "advance", "a", "", 0, 10)
	roots, err = spanTree(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if lt := breakdown(roots); !lt.sumBad[0] {
		t.Error("layer sum accepted overlapping stage spans")
	}
}

func TestSpanTreeRejectsEvictedEvents(t *testing.T) {
	sink := obs.MemorySink{Cap: 1}
	emit(&sink, "x", "1", "", 0, 1)
	emit(&sink, "y", "2", "", 1, 2)
	if _, err := spanTree(&sink); err == nil {
		t.Error("a truncated trace was accepted")
	}
}

// toyRun runs one pass of workload name at toy size.
func toyRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	w := lookup(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	r, err := run(w, options{workload: name, seed: 7, seconds: 0.05, trace: trace, toy: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := toyRun(t, w.name, trace)
			res := r.result()
			tab := endToEnd
			if trace {
				tab = perLayer
			}
			if len(res.Metrics) != len(tab) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(tab))
			}
			for _, m := range tab {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v", w.name, trace, m.name, v)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: no operations", w.name, trace)
			}
			if r.Failed != 0 {
				t.Errorf("%s trace=%v: failed checks %v", w.name, trace, r.Failures)
			}
		}
	}
}

// deterministic are the metrics that must repeat exactly for a seed: they
// count simulated work, not host time.
var deterministic = []string{
	"sim_gpu_ms_per_step", "rp_rel_err_max", "rp_disputed_points", "rp_conv_err_max",
	"rp_ref_conv_err_max", "kernels.fallback_entries", "kernels.fallback_rate", "kernels.launches",
	"gpusim.warp_insts", "gpusim.sort_fallbacks", "gpusim.mru_hits", "gpusim.line_short_circuits",
	"gpusim.fixed_sim_ms", "gpusim.adaptive_sim_ms", "gpusim.wee", "gpusim.gle",
	"gpusim.l1_hit_rate", "gpusim.l2_hit_rate", "gpusim.dram_mb", "gpusim.gflops",
}

func TestSameSeedRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel workloads twice")
	}
	for _, name := range []string{"predictive-128", "twophase-96"} {
		a, b := toyRun(t, name, true), toyRun(t, name, true)
		for _, m := range deterministic {
			va, oka := a.Metrics[m]
			vb, okb := b.Metrics[m]
			if !oka || !okb || va.Value != vb.Value {
				t.Errorf("%s %s: %v then %v", name, m, va.Value, vb.Value)
			}
		}
		if a.Metrics["gpusim.warp_insts"].Value == 0 {
			t.Errorf("%s: no simulated work recorded", name)
		}
		e := toyRun(t, name, false)
		for _, m := range []string{"sim_gpu_ms_per_step", "rp_rel_err_max"} {
			if e.Metrics[m].Value != a.Metrics[m].Value {
				t.Errorf("%s %s: untraced %v, traced %v", name, m, e.Metrics[m].Value, a.Metrics[m].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, here %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []metric
		tab  []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.tab) {
			t.Errorf("%d metrics in BENCHMARK.json, %d here", len(c.json), len(c.tab))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.tab[i].name || m.Unit != c.tab[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], here %s [%s]", i, m.Name, m.Unit, c.tab[i].name, c.tab[i].unit)
			}
		}
	}
}
