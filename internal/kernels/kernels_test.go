package kernels

import (
	"math"
	"testing"

	"beamdyn/internal/access"
	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// fixture builds a continuum history and the matching problem + target.
func fixture(steps, nx int) (*retard.Problem, *grid.Grid) {
	beam := phys.Beam{
		NumParticles: 1, TotalCharge: 1e-9,
		SigmaX: 20e-6, SigmaY: 50e-6, Energy: 4.3e9,
	}
	params := retard.Params{
		Dt:        50e-6 / phys.C,
		Kappa:     4,
		Tol:       1e-8,
		WeightExp: 1.0 / 3,
		Component: grid.CompCharge,
	}
	h := grid.NewHistory(params.Kappa + 4)
	v := beam.Beta() * phys.C
	var last *grid.Grid
	for s := 0; s < steps; s++ {
		cy := float64(s) * v * params.Dt
		hx, hy := 5*beam.SigmaX, 5*beam.SigmaY
		g := grid.New(nx, nx, grid.MomentComponents, -hx, cy-hy, 2*hx/float64(nx-1), 2*hy/float64(nx-1))
		g.Step = s
		analytic.ContinuumDeposit(g, beam, 0, cy)
		h.Push(g)
		last = g
	}
	p := retard.NewProblem(h, params)
	target := grid.New(nx, nx, 1, last.X0, last.Y0, last.DX, last.DY)
	return p, target
}

func algorithms(dev *gpusim.Device) map[string]Algorithm {
	return map[string]Algorithm{
		"twophase":   NewTwoPhase(dev),
		"heuristic":  NewHeuristic(dev),
		"predictive": NewPredictive(dev),
	}
}

func TestAllKernelsMatchReferenceSolution(t *testing.T) {
	p, target := fixture(8, 24)
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	scale := ref.MaxAbs(0)
	if scale == 0 {
		t.Fatal("reference potential identically zero")
	}
	for name, algo := range algorithms(gpusim.New(gpusim.KeplerK40())) {
		t.Run(name, func(t *testing.T) {
			out := target.Clone()
			res := algo.Step(p, out, 0)
			var worst float64
			for i := range ref.Data {
				if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
					worst = d
				}
			}
			if worst > 0.02 {
				t.Fatalf("relative deviation %g from reference", worst)
			}
			if len(res.Points) != 24*24 {
				t.Fatalf("points = %d", len(res.Points))
			}
		})
	}
}

func TestKernelStepInvariants(t *testing.T) {
	p, target := fixture(8, 24)
	for name, algo := range algorithms(gpusim.New(gpusim.KeplerK40())) {
		t.Run(name, func(t *testing.T) {
			res := algo.Step(p, target.Clone(), 0)
			m := res.Metrics
			if m.Flops == 0 || m.Time <= 0 {
				t.Fatal("no work recorded")
			}
			if wee := m.WarpExecutionEfficiency(); wee <= 0 || wee > 1 {
				t.Fatalf("WEE %g out of range", wee)
			}
			if m.L1Hits > m.L1Accesses {
				t.Fatal("cache accounting broken")
			}
			for i, pt := range res.Points {
				if !quadrature.IsSortedPartition(pt.Partition) && len(pt.Partition) > 1 {
					t.Fatalf("point %d partition unsorted", i)
				}
				if len(pt.Pattern) != p.NumSub() {
					t.Fatalf("point %d pattern length %d", i, len(pt.Pattern))
				}
				if math.IsNaN(pt.I) {
					t.Fatalf("point %d integral NaN", i)
				}
			}
		})
	}
}

func TestPredictiveTrainsAndImproves(t *testing.T) {
	p, target := fixture(8, 24)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	// Bootstrap step (untrained): prediction falls back to the coarse
	// seed; the adaptive net does real work.
	res1 := pr.Step(p, target.Clone(), 0)
	if !pr.Pred.Trained() {
		t.Fatal("ONLINE-LEARNING did not train the predictor")
	}
	// Trained step on the same problem: the forecast partitions should
	// all but eliminate the fallback.
	res2 := pr.Step(p, target.Clone(), 0)
	if res2.FallbackEntries > res1.FallbackEntries/2 {
		t.Fatalf("prediction did not reduce fallback: %d -> %d",
			res1.FallbackEntries, res2.FallbackEntries)
	}
}

func TestPredictiveLinregPredictor(t *testing.T) {
	p, target := fixture(8, 24)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	pr.Pred = NewLinregPredictor()
	pr.Step(p, target.Clone(), 0)
	res := pr.Step(p, target.Clone(), 0)
	// Linear regression is a weak model for the pattern field but must
	// still produce a correct, convergent step.
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	out := target.Clone()
	pr.Step(p, out, 0)
	scale := ref.MaxAbs(0)
	var worst float64
	for i := range ref.Data {
		if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Fatalf("linreg-predicted kernel deviates by %g", worst)
	}
	_ = res
}

func TestPredictiveClusterModes(t *testing.T) {
	p, target := fixture(8, 24)
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	scale := ref.MaxAbs(0)
	for _, mode := range []ClusterMode{ClusterByPattern, ClusterKMeans, ClusterSpatial, ClusterNone} {
		pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
		pr.Clustering = mode
		pr.Step(p, target.Clone(), 0)
		out := target.Clone()
		pr.Step(p, out, 0)
		var worst float64
		for i := range ref.Data {
			if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
				worst = d
			}
		}
		if worst > 0.02 {
			t.Fatalf("cluster mode %d deviates by %g", mode, worst)
		}
	}
}

func TestPredictivePartitionModes(t *testing.T) {
	p, target := fixture(8, 24)
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	scale := ref.MaxAbs(0)
	for _, mode := range []PartitionMode{UniformPartition, AdaptivePartition} {
		pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
		pr.Mode = mode
		pr.Step(p, target.Clone(), 0)
		out := target.Clone()
		pr.Step(p, out, 0)
		var worst float64
		for i := range ref.Data {
			if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
				worst = d
			}
		}
		if worst > 0.02 {
			t.Fatalf("partition mode %d deviates by %g", mode, worst)
		}
	}
}

func TestHeuristicReusesPatterns(t *testing.T) {
	p, target := fixture(8, 24)
	h := NewHeuristic(gpusim.New(gpusim.KeplerK40()))
	r1 := h.Step(p, target.Clone(), 0)
	r2 := h.Step(p, target.Clone(), 0)
	if r2.FallbackEntries > r1.FallbackEntries/2 && r1.FallbackEntries > 10 {
		t.Fatalf("temporal reuse did not reduce fallback: %d -> %d",
			r1.FallbackEntries, r2.FallbackEntries)
	}
	h.Reset()
	r3 := h.Step(p, target.Clone(), 0)
	if r3.FallbackEntries < r2.FallbackEntries {
		t.Fatal("Reset did not drop remembered patterns")
	}
}

// TestZeroValueKernelsMatchConstructors: a kernel's launch configuration
// is fixed, so a zero value with only Dev set steps exactly like the
// constructor's kernel — same potentials, same simulated metrics — over a
// bootstrap step and a warm one.
func TestZeroValueKernelsMatchConstructors(t *testing.T) {
	p, target := fixture(8, 24)
	pairs := map[string]func() (Algorithm, Algorithm){
		"predictive": func() (Algorithm, Algorithm) {
			return NewPredictive(gpusim.New(gpusim.KeplerK40())), &Predictive{Dev: gpusim.New(gpusim.KeplerK40())}
		},
		"heuristic": func() (Algorithm, Algorithm) {
			return NewHeuristic(gpusim.New(gpusim.KeplerK40())), &Heuristic{Dev: gpusim.New(gpusim.KeplerK40())}
		},
		"twophase": func() (Algorithm, Algorithm) {
			return NewTwoPhase(gpusim.New(gpusim.KeplerK40())), &TwoPhase{Dev: gpusim.New(gpusim.KeplerK40())}
		},
	}
	for name, mk := range pairs {
		ctor, zero := mk()
		for step := 0; step < 2; step++ {
			gc, gz := target.Clone(), target.Clone()
			rc, rz := ctor.Step(p, gc, 0), zero.Step(p, gz, 0)
			for i := range gc.Data {
				if gc.Data[i] != gz.Data[i] {
					t.Fatalf("%s step %d: zero-value potential[%d] = %v, constructor %v", name, step, i, gz.Data[i], gc.Data[i])
				}
			}
			if rc.Metrics != rz.Metrics || rc.FallbackEntries != rz.FallbackEntries {
				t.Fatalf("%s step %d: zero-value metrics/fallback differ from the constructor's", name, step)
			}
		}
	}
}

func TestKernelEfficiencyOrdering(t *testing.T) {
	// The paper's qualitative result: the Predictive kernel has the
	// highest warp execution efficiency and the Two-Phase kernel pays the
	// largest total simulated time (per equal potentials).
	p, target := fixture(8, 32)
	results := map[string]*StepResult{}
	for name, algo := range algorithms(gpusim.New(gpusim.KeplerK40())) {
		// Warm each algorithm one step so cross-step state exists.
		algo.Step(p, target.Clone(), 0)
		results[name] = algo.Step(p, target.Clone(), 0)
	}
	pw := results["predictive"].Metrics.WarpExecutionEfficiency()
	hw := results["heuristic"].Metrics.WarpExecutionEfficiency()
	if pw <= hw {
		t.Errorf("predictive WEE %.3f not above heuristic %.3f", pw, hw)
	}
	pt := results["predictive"].Metrics.Time
	tt := results["twophase"].Metrics.Time
	if pt >= tt {
		t.Errorf("predictive time %g not below two-phase %g", pt, tt)
	}
	pai := results["predictive"].Metrics.ArithmeticIntensity()
	tai := results["twophase"].Metrics.ArithmeticIntensity()
	if pai <= tai {
		t.Errorf("predictive AI %g not above two-phase %g", pai, tai)
	}
}

func TestRowMajorAndTileBlocks(t *testing.T) {
	blocks := rowMajorBlocks(10, 4)
	if len(blocks) != 3 || len(blocks[2]) != 2 {
		t.Fatalf("rowMajorBlocks shape wrong: %v", blocks)
	}
	tiles := tileBlocks(8, 8, 4, 2)
	if len(tiles) != 8 {
		t.Fatalf("tileBlocks count = %d, want 8", len(tiles))
	}
	seen := map[int]bool{}
	for _, b := range tiles {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("point %d in two tiles", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("tiles cover %d points, want 64", len(seen))
	}
}

func TestQuantilePattern(t *testing.T) {
	patterns := []access.Pattern{
		{1, 10},
		{2, 20},
		{3, 30},
		{4, 40},
	}
	members := []int{0, 1, 2, 3}
	maxPat := quantilePattern(patterns, members, 2, 1.0)
	if maxPat[0] != 4 || maxPat[1] != 40 {
		t.Fatalf("q=1 pattern %v, want element-wise max", maxPat)
	}
	med := quantilePattern(patterns, members, 2, 0.5)
	if med[0] != 2 || med[1] != 20 {
		t.Fatalf("median pattern %v", med)
	}
	// Pattern shorter than numSub zero-fills.
	short := quantilePattern([]access.Pattern{{5}}, []int{0}, 3, 1.0)
	if short[1] != 0 || short[2] != 0 {
		t.Fatalf("short pattern quantile %v", short)
	}
}

func TestSegmentClustersAreContiguousAndWarpAligned(t *testing.T) {
	p, target := fixture(8, 32)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	numSub := p.NumSub()
	patterns := make([]access.Pattern, 32*32)
	for i := range patterns {
		pat := make(access.Pattern, numSub)
		pat[0] = float64(i / 128) // bands of 4 rows
		patterns[i] = pat
	}
	groups := pr.segmentClusters(target, patterns)
	total := 0
	warp := pr.Dev.Config().WarpSize
	for gi, g := range groups {
		for k := 1; k < len(g); k++ {
			if g[k] != g[k-1]+1 {
				t.Fatalf("group %d not contiguous at member %d", gi, k)
			}
		}
		// All groups except possibly the last are whole warps.
		if gi < len(groups)-1 && len(g)%warp != 0 {
			t.Fatalf("group %d size %d not warp-aligned", gi, len(g))
		}
		total += len(g)
	}
	if total != 1024 {
		t.Fatalf("groups cover %d points", total)
	}
}
