package kernels

import (
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/obs"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// TwoPhase implements the Two-Phase-RP kernel of [9]: a first phase that
// applies Simpson's rule on a coarse uniform partition with a row-major
// point-to-thread mapping, and a second, globally adaptive phase that
// iteratively refines the intervals that missed the tolerance over a
// compacted global work list — one breadth-first round per refinement
// level, with the interval list re-read from global memory every round and
// intervals of many different grid points and radii interleaving in each
// warp. The algorithm balances work well but re-evaluates interval
// endpoints every round and ignores inter-thread data locality: exactly
// the inefficiencies [10] and this paper address.
type TwoPhase struct {
	Dev *gpusim.Device
	// HostWorkers bounds the host-side worker count (<= 0: GOMAXPROCS).
	HostWorkers int

	obs *obs.Observer
}

// SetObserver implements Observable.
func (t *TwoPhase) SetObserver(o *obs.Observer) { t.obs = o }

// SetHostWorkers implements HostParallel.
func (t *TwoPhase) SetHostWorkers(n int) { t.HostWorkers = n }

// SetDevice implements Rebindable.
func (t *TwoPhase) SetDevice(dev *gpusim.Device) { t.Dev = dev }

// twoPhasePanelsPerSub is [9]'s phase-1 partition: one Simpson panel per
// radial subregion.
const twoPhasePanelsPerSub = 1

// NewTwoPhase returns the kernel with the launch configuration of [9]. The
// zero value with Dev set is equivalent.
func NewTwoPhase(dev *gpusim.Device) *TwoPhase {
	return &TwoPhase{Dev: dev}
}

// Name implements Algorithm.
func (t *TwoPhase) Name() string { return "Two-Phase-RP" }

// Reset implements Algorithm; the Two-Phase kernel is stateless across
// steps.
func (t *TwoPhase) Reset() {}

// Step implements Algorithm.
func (t *TwoPhase) Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult {
	workers := hostpar.Workers(t.HostWorkers)
	points := buildPoints(p, target, workers)
	res := &StepResult{}
	spec := fixedPhaseSpec{
		name:            "twophase/uniform",
		blocks:          rowMajorBlocks(len(points), blockThreads),
		threadsPerBlock: blockThreads,
		partFor: func(i, _ int) ([]float64, uintptr) {
			return uniformCoarsePartition(p, points[i].R, twoPhasePanelsPerSub), 0
		},
	}
	sp := t.obs.Span("twophase/uniform", target.Step)
	m, entries := fixedPhase(t.Dev, p, points, spec)
	res.Metrics.Add(m)
	res.Fixed = m
	res.Launches++
	res.FallbackEntries = len(entries)
	res.FallbackBySubregion = tallySubregions(p, entries)
	sp.End(obs.I("fallback_entries", len(entries)), obs.F("sim_sec", m.Time))

	sp = t.obs.Span("twophase/refine", target.Step)
	rm, launches := t.refineRounds(p, points, entries)
	res.Metrics.Add(rm)
	res.Adaptive = rm
	res.Launches += launches
	sp.End(obs.I("rounds", launches), obs.F("sim_sec", rm.Time))

	finishPatterns(p, points, workers)
	storeResults(points, target, comp, workers)
	// No forecast model: the sample still tracks the fallback series so
	// kernels are comparable on the same dashboard.
	if t.obs.PredictorEnabled() {
		t.obs.RecordPredictor(obs.StepSample{
			Step:            target.Step,
			Kernel:          t.Name(),
			Points:          len(points),
			FallbackEntries: res.FallbackEntries,
		}, nil)
	}
	res.Points = points
	return res
}

// roundResult is the output slot of one refinement-round entry: done when
// the entry met its tolerance (or the depth limit) and [a, b] joins its
// point's partition.
type roundResult struct {
	i, err float64
	done   bool
}

// refineRounds is [9]'s globally adaptive refinement: each round launches
// one thread per pending interval, evaluating the full 5-point Simpson
// pair from scratch (no evaluation reuse across rounds — each round's
// intervals are fresh global-memory entries), then splits the failures for
// the next round. The interval list doubles where refinement continues,
// scrambling grid points and radii within warps round by round.
func (t *TwoPhase) refineRounds(p *retard.Problem, points []Point, entries []workEntry) (gpusim.Metrics, int) {
	var total gpusim.Metrics
	launches := 0
	const tpb = blockThreads
	pool := newIntegrandPool(t.Dev, p)
	for depth := 0; len(entries) > 0 && depth < p.MaxDepth; depth++ {
		results := make([]roundResult, len(entries))
		es := entries
		blocks := (len(es) + tpb - 1) / tpb
		m := t.Dev.Run(gpusim.Launch{
			Name:            "twophase/refine",
			Blocks:          blocks,
			ThreadsPerBlock: tpb,
			Kernel: func(lane *gpusim.Lane, block, thread int) {
				idx := block*tpb + thread
				if idx >= len(es) {
					return
				}
				e := es[idx]
				lane.Begin(kindRefine)
				for f := 0; f < 4; f++ {
					lane.Load(workAddr(idx, f))
				}
				lane.Load(pointAddr(e.pt, 0))
				lane.Load(pointAddr(e.pt, 1))
				lane.Flops(6)
				f := pool.bind(points[e.pt].X, points[e.pt].Y, lane, block)
				est := quadrature.SimpsonRule(f, e.a, e.b)
				lane.Flops(14)
				res := &results[idx]
				if est.Err <= e.tol || depth == p.MaxDepth-1 {
					res.i = est.I
					res.err = est.Err
					res.done = true
				}
				lane.Begin(kindFinish)
				for f := 0; f < 3; f++ {
					lane.Store(workAddr(idx, f))
				}
				lane.Flops(2)
			},
		})
		total.Add(m)
		launches++
		var next []workEntry
		for i, e := range entries {
			r := &results[i]
			if r.done {
				pt := &points[e.pt]
				pt.I += r.i
				pt.Err += r.err
				bounds := [2]float64{e.a, e.b}
				pt.Partition = quadrature.MergeLists(pt.Partition, bounds[:], 1e-18)
			} else {
				mid := 0.5 * (e.a + e.b)
				next = append(next,
					workEntry{a: e.a, b: mid, tol: e.tol / 2, pt: e.pt},
					workEntry{a: mid, b: e.b, tol: e.tol / 2, pt: e.pt})
			}
		}
		entries = next
	}
	total.Kernels = launches
	return total, launches
}
