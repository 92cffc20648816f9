package kernels

import (
	"sort"
	"testing"

	"beamdyn/internal/gpusim"
)

// TestKernelsUnchangedByEvaluator is the refactor's contract with the cost
// model: swapping the closure integrand for the per-SM panel evaluators
// must leave every kernel's output grid bitwise identical and every
// simulated counter — loads, flops, cache traffic, modelled time, and the
// device's replay statistics (sort fallbacks, line short-circuits, MRU
// hits) — exactly equal, across consecutive steps (the evaluator pool is reused and Reset
// between steps).
//
// The cache model maps real heap addresses to sets, so the comparison is
// only exact when both modes replay the same address stream against the
// same starting cache state: the fixture is built once and shared by both
// modes (identical history addresses), and every (algorithm, mode) pair
// gets its own device (no cache carry-over between algorithms, whose
// iteration order would otherwise be the map's random one).
func TestKernelsUnchangedByEvaluator(t *testing.T) {
	type stepOut struct {
		data    []float64
		metrics gpusim.Metrics
		replay  gpusim.ReplayStats
		points  []Point
	}

	p, target := fixture(8, 16)

	runAlgo := func(name string, closure bool) []stepOut {
		defer func(prev bool) { UseClosureIntegrand = prev }(UseClosureIntegrand)
		UseClosureIntegrand = closure
		dev := gpusim.New(gpusim.KeplerK40())
		algo := algorithms(dev)[name]
		var out []stepOut
		for step := 0; step < 2; step++ {
			tg := target.Clone()
			tg.Step = p.Step + step
			res := algo.Step(p, tg, 0)
			out = append(out, stepOut{
				data:    append([]float64(nil), tg.Data...),
				metrics: res.Metrics,
				replay:  dev.ReplayStats(),
				points:  res.Points,
			})
		}
		return out
	}

	var names []string
	for name := range algorithms(gpusim.New(gpusim.KeplerK40())) {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ws := runAlgo(name, true)
		gs := runAlgo(name, false)
		for step := range ws {
			w, g := ws[step], gs[step]
			for i := range w.data {
				if g.data[i] != w.data[i] {
					t.Fatalf("%s step %d: grid datum %d = %v, closure %v", name, step, i, g.data[i], w.data[i])
				}
			}
			if g.metrics != w.metrics {
				t.Fatalf("%s step %d: metrics diverge\nevaluator: %+v\nclosure:   %+v", name, step, g.metrics, w.metrics)
			}
			if g.replay != w.replay {
				t.Fatalf("%s step %d: replay stats diverge\nevaluator: %+v\nclosure:   %+v", name, step, g.replay, w.replay)
			}
			for i := range w.points {
				if g.points[i].I != w.points[i].I || g.points[i].Err != w.points[i].Err {
					t.Fatalf("%s step %d point %d: (I=%v Err=%v), closure (I=%v Err=%v)",
						name, step, i, g.points[i].I, g.points[i].Err, w.points[i].I, w.points[i].Err)
				}
				for k := range w.points[i].Partition {
					if g.points[i].Partition[k] != w.points[i].Partition[k] {
						t.Fatalf("%s step %d point %d: partition[%d] = %v, closure %v",
							name, step, i, k, g.points[i].Partition[k], w.points[i].Partition[k])
					}
				}
			}
		}
	}
}

// TestEvaluatorPoolSizedToDevice checks the per-SM pool: one evaluator per
// SM at most, however many blocks the launch spawns.
func TestEvaluatorPoolSizedToDevice(t *testing.T) {
	dev := gpusim.New(gpusim.KeplerK40())
	p, target := fixture(8, 16)
	algo := NewTwoPhase(dev)
	algo.Step(p, target.Clone(), 0)
	pool := newIntegrandPool(dev, p)
	if len(pool.evals) != dev.Config().NumSMs {
		t.Fatalf("pool holds %d evaluator slots, device has %d SMs", len(pool.evals), dev.Config().NumSMs)
	}
}
