// Package kernels implements the three parallel algorithms the paper
// compares for the compute-retarded-potentials stage, all running on the
// simulated GPU of package gpusim:
//
//   - TwoPhase — the globally adaptive parallel quadrature of [9]
//     ("Two-Phase-RP kernel"): a uniform evaluation phase followed by
//     iterative refinement rounds over a compacted global interval list.
//   - Heuristic — the cache-aware heuristics of [10] ("Heuristic-RP
//     kernel"): temporal reuse of the previous step's partitions, spatial
//     tiling for data locality, and cost-sorted workload balancing.
//   - Predictive — this paper's Algorithm 1 ("Predictive-RP kernel"):
//     kNN-forecast access patterns, RP-CLUSTERING of grid points by
//     predicted pattern (warp-aligned contiguous segments by default,
//     literal k-means as an option), per-cluster merged partitions for
//     uniform control flow, and an adaptive safety net that also feeds
//     online learning.
//
// All three produce identical potentials to the sequential reference
// within the error tolerance; they differ in simulated-GPU behaviour
// (divergence, locality, wasted work), which is exactly what the paper's
// Tables I-II and Figure 4 measure.
package kernels

import (
	"cmp"
	"math"
	"runtime"
	"slices"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// Simulated device address-space regions for kernel-visible host arrays.
// Grid history occupies low addresses (assigned by grid.History); these
// regions hold the auxiliary arrays the kernels read and write.
const (
	// RegionPoints holds the per-grid-point 7-tuple objects of Algorithm 1
	// (64 bytes per point).
	RegionPoints uintptr = 1 << 32
	// RegionParts holds partition arrays (predicted, merged or previous).
	RegionParts uintptr = 1 << 33
	// RegionWork holds refinement work-list entries (32 bytes per entry).
	RegionWork uintptr = 1 << 34
)

// Unit kinds used by the kernels; divergent kinds at the same trace step
// serialise in the warp replay.
const (
	kindInit = iota
	kindPanel
	kindSkip
	kindFinish
	kindRefine
)

// Point is the host-side mirror of the paper's grid-point object: position,
// integral and error estimates, access pattern and partition.
type Point struct {
	X, Y float64
	// R is the irregular integration limit R(p).
	R float64
	// I and Err accumulate the rp-integral and error estimates.
	I, Err float64
	// Pattern and Partition are the observed access pattern and the
	// partition used, updated as Algorithm 1 lines 20-21 prescribe.
	Pattern   access.Pattern
	Partition []float64
}

// pointAddr returns the simulated address of field f of point i.
func pointAddr(i, f int) uintptr { return RegionPoints + uintptr(i)*64 + uintptr(f)*8 }

// workAddr returns the simulated address of field f of work entry i.
func workAddr(i, f int) uintptr { return RegionWork + uintptr(i)*32 + uintptr(f)*8 }

// HostTimes records the wall-clock host-side overheads of one step, the
// quantities reported in Table II alongside the simulated GPU time.
type HostTimes struct {
	// Clustering is the RP-CLUSTERING (k-means) time.
	Clustering float64
	// Predict is the forecast + partition-transform time.
	Predict float64
	// Train is the ONLINE-LEARNING time.
	Train float64
	// PredictAllocs, ClusteringAllocs and TrainAllocs count the heap
	// allocations performed during the corresponding phase. They are
	// populated only while CountHostAllocs is set (the accounting reads
	// runtime.MemStats, which is far too expensive for production steps)
	// and are zero otherwise.
	PredictAllocs, ClusteringAllocs, TrainAllocs uint64
}

// CountHostAllocs enables per-phase heap-allocation accounting in the
// kernels' host stages (the *Allocs fields of HostTimes). It is meant for
// tests and benchmarks (TestPredictiveSteadyStateHostAllocs,
// BenchmarkPredictiveHostPhases); the ReadMemStats it triggers stops the
// world, so leave it off elsewhere.
// Toggle only while no kernel step is in flight.
var CountHostAllocs bool

// hostAllocCount samples the cumulative heap-allocation counter, or 0 when
// accounting is disabled (so deltas of two samples are also 0).
func hostAllocCount() uint64 {
	if !CountHostAllocs {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// HostParallel is implemented by kernels whose host-side stages run on the
// deterministic worker pool of internal/hostpar. SetHostWorkers bounds the
// worker count (values <= 0 mean runtime.GOMAXPROCS); the fleet scheduler
// forwards the setting to its per-band kernels. Every
// host loop partitions its index range statically and writes results by
// index, so a kernel's output is bitwise identical for every worker count.
type HostParallel interface {
	SetHostWorkers(n int)
}

// Rebindable is implemented by kernels that run on one simulated device.
// SetDevice moves the kernel to dev and keeps its learned state, so the
// fleet scheduler can own one kernel per row-band and run it on whichever
// device executes the band that step.
type Rebindable interface {
	SetDevice(dev *gpusim.Device)
}

// Overhead is the total host-side overhead.
func (h HostTimes) Overhead() float64 { return h.Clustering + h.Predict + h.Train }

// UseClosureIntegrand routes the kernels' integrand evaluations through
// the original closure-based Problem.Integrand instead of the panel
// evaluator pool. The two paths produce bitwise-identical results and
// identical simulated-lane traces — the equivalence tests assert exactly
// that — so the switch exists only for those tests and for A/B
// benchmarks. Toggle while no kernel step is in flight.
var UseClosureIntegrand bool

// integrandPool hands each simulated SM a persistent panel evaluator.
// gpusim runs one goroutine per SM with blocks assigned round-robin
// (SM = block % NumSMs) and lane bodies within an SM run sequentially, so
// indexing the pool by block modulo NumSMs is race-free.
type integrandPool struct {
	p     *retard.Problem
	evals []*retard.Evaluator // nil when the closure path is selected
}

func newIntegrandPool(dev *gpusim.Device, p *retard.Problem) *integrandPool {
	pool := &integrandPool{p: p}
	if !UseClosureIntegrand {
		pool.evals = make([]*retard.Evaluator, dev.Config().NumSMs)
	}
	return pool
}

// bind returns the outer radial integrand for the point (x, y), evaluated
// on the block's SM-local evaluator (or by the closure path when that is
// selected), recording loads and flops on lane.
func (ip *integrandPool) bind(x, y float64, lane *gpusim.Lane, block int) quadrature.Func {
	if ip.evals == nil {
		return ip.p.Integrand(x, y, lane)
	}
	sm := block % len(ip.evals)
	e := ip.evals[sm]
	if e == nil {
		e = retard.NewEvaluator(ip.p)
		ip.evals[sm] = e
	}
	e.Bind(x, y, lane)
	return e.Func()
}

// StepResult is the outcome of one compute-potentials step executed by a
// kernel.
type StepResult struct {
	// Points holds the final per-point state in row-major target order.
	Points []Point
	// Metrics aggregates the simulated-GPU profiler counters of every
	// launch of the step.
	Metrics gpusim.Metrics
	// Host records host-side overhead wall times.
	Host HostTimes
	// FallbackEntries counts the subregions that failed the tolerance in
	// the predicted/fixed phase and went to adaptive refinement.
	FallbackEntries int
	// Launches is the number of simulated kernel launches.
	Launches int
	// Fixed and Adaptive break Metrics down by phase: the fixed-partition
	// pass and the adaptive safety net.
	Fixed, Adaptive gpusim.Metrics
	// FallbackBySubregion counts the fallback entries per radial
	// subregion (diagnostics for prediction quality).
	FallbackBySubregion []int
}

// tallySubregions histograms work entries by radial subregion.
func tallySubregions(p *retard.Problem, entries []workEntry) []int {
	out := make([]int, p.NumSub())
	sw := p.SubWidth()
	for _, e := range entries {
		j := int(0.5 * (e.a + e.b) / sw)
		if j >= 0 && j < len(out) {
			out[j]++
		}
	}
	return out
}

// Algorithm is the common interface of the three kernels: evaluate the
// rp-integral at every point of the target grid for the problem's current
// step, writing potentials into component comp of target.
type Algorithm interface {
	// Name returns the kernel's paper name.
	Name() string
	// Step runs one compute-potentials step.
	Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult
	// Reset clears cross-step state (between independent experiments).
	Reset()
}

// CostForecaster is implemented by kernels that can forecast the relative
// cost of evaluating each target row before the step runs. The Predictive
// kernel derives it from its learned access-pattern forecast (a row's
// predicted grid references are a proxy for its integration work); fleet
// schedulers use the forecast to place row-bands across devices.
type CostForecaster interface {
	// ForecastRowCosts returns one relative cost per target row, or nil
	// when no trustworthy forecast exists yet (untrained model, geometry
	// mismatch) — callers then fall back to measured or uniform costs.
	ForecastRowCosts(p *retard.Problem, target *grid.Grid) []float64
}

// gridCenter returns the physical centre of the target grid, the origin of
// the bunch-frame coordinates used as prediction features.
func gridCenter(target *grid.Grid) (cx, cy float64) {
	x0, y0, x1, y1 := target.Bounds()
	return 0.5 * (x0 + x1), 0.5 * (y0 + y1)
}

// buildPoints constructs the per-point task list for a target grid. The
// fill runs on the host worker pool (R evaluations are pure reads of the
// problem); the backing array is fresh each step because StepResult hands
// the points to the caller.
func buildPoints(p *retard.Problem, target *grid.Grid, workers int) []Point {
	pts := make([]Point, target.NX*target.NY)
	hostpar.For(len(pts), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := target.Point(i%target.NX, i/target.NX)
			pts[i] = Point{X: x, Y: y, R: p.R(x, y)}
		}
	})
	return pts
}

// storeResults writes the accumulated potentials into the target grid,
// each worker owning a disjoint range of cells.
func storeResults(points []Point, target *grid.Grid, comp int, workers int) {
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			target.Set(i%target.NX, i/target.NX, comp, points[i].I)
		}
	})
}

// workEntry is one refinement task: integrate f over [a, b] for point pt
// to tolerance tol.
type workEntry struct {
	a, b float64
	tol  float64
	pt   int
}

// adaptiveResult is the per-entry output slot of the adaptive phase. The
// entry's accepted panel bounds are bounds[lo:hi] of its SM's breakpoint
// scratch.
type adaptiveResult struct {
	i, err float64
	sm     int
	lo, hi int
}

// adaptiveFrame is one panel on a lane's refinement stack: its endpoint
// and midpoint integrand values plus its coarse estimate, so a refinement
// step evaluates only the two new quarter points — the evaluation reuse
// every serious adaptive implementation (including [9]'s CUDA code)
// performs.
type adaptiveFrame struct {
	a, b, tol  float64
	fa, fm, fb float64
	coarse     float64
	depth      int
}

// blockThreads is the block size of every kernel's row-major and
// refinement launches, and the cap on a Predictive cluster block.
const blockThreads = 256

// adaptivePhase is RP-ADAPTIVEQUADRATURE: one launch with one thread per
// work entry, each thread running the full recursive adaptive Simpson
// algorithm for its interval (depth-first via an explicit stack, as the
// CUDA implementation of [9] does). Every refinement step is a trace unit,
// so threads whose intervals need different refinement depths diverge —
// the control-flow irregularity of adaptive quadrature the paper's Section
// III.C.2 describes.
//
// The sortByCost flag enables [10]'s workload-balance heuristic of
// grouping intervals of similar estimated cost into the same warp.
// Results accumulate into points (integral, error, partition breakpoints).
func adaptivePhase(dev *gpusim.Device, p *retard.Problem, points []Point, entries []workEntry, sortByCost bool, name string) (gpusim.Metrics, int) {
	if len(entries) == 0 {
		return gpusim.Metrics{}, 0
	}
	if sortByCost {
		// Widest (costliest) interval first, ties by point.
		slices.SortFunc(entries, func(x, y workEntry) int {
			if wx, wy := x.b-x.a, y.b-y.a; wx != wy {
				return cmp.Compare(wy, wx)
			}
			return cmp.Compare(x.pt, y.pt)
		})
	}
	results := make([]adaptiveResult, len(entries))
	maxDepth := p.MaxDepth
	blocks := (len(entries) + blockThreads - 1) / blockThreads
	pool := newIntegrandPool(dev, p)
	// stackBySM and boundsBySM are each simulated SM's frame stack and
	// accepted-breakpoint scratch, indexed like the integrand pool: one SM
	// replays its lanes sequentially, so each lane reuses the stack, and
	// its bounds append to the SM's list for the merge after the launch.
	numSMs := dev.Config().NumSMs
	stackBySM := make([][]adaptiveFrame, numSMs)
	boundsBySM := make([][]float64, numSMs)
	m := dev.Run(gpusim.Launch{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: blockThreads,
		Kernel: func(lane *gpusim.Lane, block, thread int) {
			idx := block*blockThreads + thread
			if idx >= len(entries) {
				return
			}
			e := entries[idx]
			lane.Begin(kindInit)
			for f := 0; f < 4; f++ {
				lane.Load(workAddr(idx, f))
			}
			lane.Load(pointAddr(e.pt, 0))
			lane.Load(pointAddr(e.pt, 1))
			lane.Flops(6)
			f := pool.bind(points[e.pt].X, points[e.pt].Y, lane, block)
			sm := block % numSMs
			bounds := boundsBySM[sm]
			res := &results[idx]
			res.sm, res.lo = sm, len(bounds)

			m0 := 0.5 * (e.a + e.b)
			fa, fm, fb := f(e.a), f(m0), f(e.b)
			lane.Flops(4)
			stack := append(stackBySM[sm][:0], adaptiveFrame{
				a: e.a, b: e.b, tol: e.tol,
				fa: fa, fm: fm, fb: fb,
				coarse: (e.b - e.a) / 6 * (fa + 4*fm + fb),
			})
			for len(stack) > 0 {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				lane.Begin(kindRefine)
				mid := 0.5 * (fr.a + fr.b)
				lm, rm := 0.5*(fr.a+mid), 0.5*(mid+fr.b)
				flm, frm := f(lm), f(rm)
				h := fr.b - fr.a
				left := h / 12 * (fr.fa + 4*flm + fr.fm)
				right := h / 12 * (fr.fm + 4*frm + fr.fb)
				errEst := math.Abs(left+right-fr.coarse) / 15
				lane.Flops(16)
				if errEst <= fr.tol || fr.depth >= maxDepth {
					res.i += left + right + (left+right-fr.coarse)/15
					res.err += errEst
					bounds = append(bounds, fr.a, fr.b)
					continue
				}
				stack = append(stack,
					adaptiveFrame{a: mid, b: fr.b, tol: fr.tol / 2, fa: fr.fm, fm: frm, fb: fr.fb, coarse: right, depth: fr.depth + 1},
					adaptiveFrame{a: fr.a, b: mid, tol: fr.tol / 2, fa: fr.fa, fm: flm, fb: fr.fm, coarse: left, depth: fr.depth + 1})
			}
			stackBySM[sm] = stack
			res.hi = len(bounds)
			boundsBySM[sm] = bounds
			lane.Begin(kindFinish)
			for f := 0; f < 3; f++ {
				lane.Store(workAddr(idx, f))
			}
			lane.Flops(2)
		},
	})
	for i, e := range entries {
		r := &results[i]
		pt := &points[e.pt]
		pt.I += r.i
		pt.Err += r.err
		bounds := boundsBySM[r.sm][r.lo:r.hi]
		slices.Sort(bounds)
		pt.Partition = quadrature.MergeLists(pt.Partition, bounds, 1e-18)
	}
	return m, 1
}

// finishPatterns derives each point's observed access pattern from its
// final partition (Algorithm 1 line 20: patterns observed during the
// computation, including the adaptive additions). Panels whose angular
// window was empty performed no grid references and do not count.
// ObservedPattern is a pure read of the problem, so points split across
// the worker pool.
func finishPatterns(p *retard.Problem, points []Point, workers int) {
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			points[i].Pattern = p.ObservedPattern(points[i].X, points[i].Y, points[i].Partition)
		}
	})
}

// uniformCoarsePartition is the first-step partition when no history or
// prediction exists: panelsPerSub panels per subregion up to R.
func uniformCoarsePartition(p *retard.Problem, r float64, panelsPerSub int) []float64 {
	n := p.NumSub()
	pat := make(access.Pattern, n)
	for j := range pat {
		pat[j] = float64(panelsPerSub)
	}
	return pat.UniformPartition(p.SubWidth(), r)
}
