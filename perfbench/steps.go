package main

import (
	"math"
	"runtime"
	"time"

	"beamdyn"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/jobs"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
)

// hostWorkers is the worker count of every host-parallel stage: the
// benchmark is one process with at most nproc = 2 threads of its own.
const hostWorkers = 2

// setups is how many times a run builds its workload anew; setup_s
// is the median.
const setups = 3

// detSteps is the deterministic window: the first detSteps measured steps
// always run, whatever --seconds allows, and the counts that must repeat
// exactly (simulated time, fallback entries, replay counters, accuracy)
// are taken over them only.
const detSteps = 3

// rpTol is the accuracy bound of a kernel step: the largest deviation from
// the host reference solver, as a share of the reference's peak magnitude
// (the bound internal/kernels' reference test uses).
const rpTol = 0.02

// A point where a kernel and the same-τ reference differ by more than
// rpTol is settled by a converged solve: tolerance τ·convTolScale and
// recursion depth convMaxDepth. At 128x128 that solve is within 0.05% of
// peak of one at τ·1e-6 and depth 26.
const (
	convTolScale = 1e-5
	convMaxDepth = 24
)

// hostReference marks a step workload whose potentials stage runs on the
// host reference solver (Simulation.Algo == nil).
const hostReference beamdyn.Kernel = -1

// stepWorkload is a single simulation advanced step by step.
type stepWorkload struct {
	kernel beamdyn.Kernel
	config func(o options) beamdyn.Config
}

// stepRun is one simulation under measurement.
type stepRun struct {
	sim *beamdyn.Simulation
	dev *gpusim.Device // nil on the host reference
	tr  *obs.Observer  // nil when untraced
	// ref is the host reference solver of the accuracy check, kept across
	// steps so its arenas are reused.
	ref retard.GridSolver
}

// newStepRun builds the simulation, attaches the kernel on a device of its
// own and fills the retardation history (Warmup). A traced run emits spans
// from construction on.
func (w stepWorkload) newStepRun(cfg beamdyn.Config, tr *obs.Observer) *stepRun {
	s := &stepRun{sim: beamdyn.New(cfg), tr: tr, ref: retard.GridSolver{Workers: hostWorkers}}
	if w.kernel != hostReference {
		s.dev = beamdyn.NewDevice(beamdyn.KeplerK40())
		s.sim.Algo = beamdyn.NewKernelOn(w.kernel, s.dev)
	}
	s.sim.Obs = tr
	s.sim.Warmup()
	return s
}

// advance runs one Simulation.Advance inside the benchmark's own span and
// returns its wall time in seconds.
func (s *stepRun) advance() float64 {
	var sp obs.Span
	if s.tr != nil {
		sp = s.tr.Span("bench/advance", s.sim.Step)
		s.sim.Obs = sp.Scope()
	}
	t0 := time.Now()
	s.sim.Advance()
	d := time.Since(t0).Seconds()
	sp.End()
	return d
}

// digest is the SHA-256 of the latest potential grid.
func (s *stepRun) digest() string {
	p := s.sim.Potential
	return jobs.GridDigest(p.NX, p.NY, p.Data)
}

// stepWindow accumulates the deterministic per-step results of the first
// detSteps measured steps of one run.
type stepWindow struct {
	steps           int
	simMs           []float64
	acc             accuracy
	fixed, adaptive gpusim.Metrics
	total           gpusim.Metrics
	fallback        int
	points          int
	launches        int
	replay          gpusim.ReplayStats
}

// check validates the step just taken: its potential grid must be finite
// and a kernel's must be within rpTol of the right answer at every point
// (see accuracy). Inside the deterministic window it records the kernel
// results into win. It returns the names of the checks the step failed.
func (s *stepRun) check(win *stepWindow, rs gpusim.ReplayStats) []string {
	var failed []string
	pot := s.sim.Potential
	for _, v := range pot.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			failed = append(failed, "finite")
			break
		}
	}
	last := s.sim.Last
	if last == nil {
		return failed // host reference: it is the reference
	}
	a := s.accuracy()
	if !a.ok() {
		failed = append(failed, "rp_rel_err")
	}
	if win.steps >= detSteps {
		return failed
	}
	win.steps++
	win.acc.merge(a)
	win.simMs = append(win.simMs, last.Metrics.Time*1e3)
	win.fixed.Add(last.Fixed)
	win.adaptive.Add(last.Adaptive)
	win.total.Add(last.Metrics)
	win.fallback += last.FallbackEntries
	win.points += len(last.Points)
	win.launches += last.Launches
	win.replay = addReplay(win.replay, rs)
	return failed
}

// accuracy is the outcome of a kernel step's accuracy check.
//
// The host reference solver at the kernel's τ stands in for the right
// answer, as in internal/kernels' reference test. Neither it nor the
// kernel is exact: both stop refining a subregion when Simpson's error
// estimate is under τ, and on a sampled (noisy) bunch that estimate can
// undershoot, so either may stop early at a point. Where the two differ by
// more than rpTol of the reference's peak, the point is disputed and a
// converged solve of it decides: the kernel must be within rpTol of that.
type accuracy struct {
	relErr   float64 // max|kernel - reference| / max|reference|
	disputed int     // points where that share exceeds rpTol
	kernErr  float64 // max|kernel - converged| / peak over disputed points
	refErr   float64 // max|reference - converged| / peak over disputed points
}

// ok reports whether the kernel is within rpTol at every point.
func (a accuracy) ok() bool { return a.relErr <= rpTol || a.kernErr <= rpTol }

// merge takes the worst of a and b, and sums their disputed points.
func (a *accuracy) merge(b accuracy) {
	a.relErr = math.Max(a.relErr, b.relErr)
	a.disputed += b.disputed
	a.kernErr = math.Max(a.kernErr, b.kernErr)
	a.refErr = math.Max(a.refErr, b.refErr)
}

// accuracy solves the latest step's problem on the host reference solver
// and compares the kernel's potential grid with it, settling disputed
// points with a converged solve.
func (s *stepRun) accuracy() accuracy {
	pot := s.sim.Potential
	ref := grid.New(pot.NX, pot.NY, 1, pot.X0, pot.Y0, pot.DX, pot.DY)
	ref.Step = pot.Step
	s.ref.Solve(retard.NewProblem(s.sim.Hist, s.sim.Params()), ref, 0)
	return compare(pot.Data, ref, s.converged())
}

// converged returns a solver of the latest step's problem at the
// converged tolerance, one point at a time.
func (s *stepRun) converged() func(x, y float64) float64 {
	p := s.sim.Params()
	p.Tol *= convTolScale
	p.MaxDepth = convMaxDepth
	var e *retard.Evaluator
	return func(x, y float64) float64 {
		if e == nil {
			e = retard.NewEvaluator(retard.NewProblem(s.sim.Hist, p))
		}
		defer e.ResetScratch()
		return e.SolvePoint(x, y).I
	}
}

// compare checks kernel against the reference grid ref, calling converged
// at the disputed points only.
func compare(kernel []float64, ref *grid.Grid, converged func(x, y float64) float64) accuracy {
	var a accuracy
	peak := ref.MaxAbs(0)
	for i, v := range ref.Data {
		d := math.Abs(kernel[i]-v) / peak
		a.relErr = math.Max(a.relErr, d)
		if !(d <= rpTol) {
			a.disputed++
			c := converged(ref.Point(i%ref.NX, i/ref.NX))
			a.kernErr = math.Max(a.kernErr, math.Abs(kernel[i]-c)/peak)
			a.refErr = math.Max(a.refErr, math.Abs(v-c)/peak)
		}
	}
	return a
}

func addReplay(a, b gpusim.ReplayStats) gpusim.ReplayStats {
	return gpusim.ReplayStats{
		WarpInsts:         a.WarpInsts + b.WarpInsts,
		MRUHits:           a.MRUHits + b.MRUHits,
		SortFallbacks:     a.SortFallbacks + b.SortFallbacks,
		LineShortCircuits: a.LineShortCircuits + b.LineShortCircuits,
	}
}

func subReplay(a, b gpusim.ReplayStats) gpusim.ReplayStats {
	return gpusim.ReplayStats{
		WarpInsts:         a.WarpInsts - b.WarpInsts,
		MRUHits:           a.MRUHits - b.MRUHits,
		SortFallbacks:     a.SortFallbacks - b.SortFallbacks,
		LineShortCircuits: a.LineShortCircuits - b.LineShortCircuits,
	}
}

// replayStats reads the device's cumulative replay counters (zero on the
// host reference).
func (s *stepRun) replayStats() gpusim.ReplayStats {
	if s.dev == nil {
		return gpusim.ReplayStats{}
	}
	return s.dev.ReplayStats()
}

func (w stepWorkload) params(cfg beamdyn.Config, r *report) {
	kernel := "host-reference"
	if w.kernel != hostReference {
		kernel = w.kernel.String() + " on one simulated K40"
	}
	r.Params = map[string]any{
		"nx": cfg.NX, "ny": cfg.NY, "particles": cfg.Beam.NumParticles, "rigid": cfg.Rigid,
		"kernel": kernel, "tau": cfg.Tol, "kappa": cfg.Kappa, "sim_seed": cfg.Seed,
		"host_workers": cfg.HostWorkers, "setups": setups, "det_steps": detSteps,
	}
}

// endToEnd is the untraced pass: set up `setups` times, then time Advance
// until --seconds have passed, and at least detSteps steps. The calibration
// kernel runs after every set-up and step; the gated times are scaled by
// its median.
func (w stepWorkload) endToEnd(o options, r *report) error {
	cfg := w.config(o)
	w.params(cfg, r)
	var run *stepRun
	setup := make([]float64, setups)
	var cals []float64
	for i := range setup {
		run = nil
		runtime.GC()
		t0 := time.Now()
		run = w.newStepRun(cfg, nil)
		setup[i] = time.Since(t0).Seconds()
		cals = append(cals, calibrate())
	}
	runtime.GC()
	var win stepWindow
	var wall []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(wall) < detSteps || time.Now().Before(deadline) {
		rs0 := run.replayStats()
		wall = append(wall, run.advance()*1e3)
		cals = append(cals, calibrate())
		r.op(run.check(&win, subReplay(run.replayStats(), rs0))...)
	}
	cal := median(cals)
	r.set("setup_s", scaled(median(setup), cal), setups)
	r.set("step_ms_p50", scaled(median(wall), cal), len(wall))
	r.set("steps_per_s", float64(len(wall))/scaled(sum(wall)/1e3, cal), len(wall))
	r.set("setup_wall_s", median(setup), setups)
	r.set("step_wall_ms_p50", median(wall), len(wall))
	r.set("cal_ms_p50", cal, len(cals))
	r.set("max_rss_mb", maxRSSMB(), 1)
	if w.kernel != hostReference {
		r.set("sim_gpu_ms_per_step", median(win.simMs), len(win.simMs))
		setAccuracy(r, &win)
	}
	return nil
}

// perLayer interleaves an untraced run A and a traced run B of the same
// inputs, one step each in turn, until --seconds have passed. B's spans
// give the layer times; A gives the allocator counts and the untraced step
// time the tracing overhead is measured against. Every step of B must
// reproduce A's potential grid bit for bit and A's simulated-GPU counters
// exactly.
func (w stepWorkload) perLayer(o options, r *report) error {
	cfg := w.config(o)
	w.params(cfg, r)
	sink := &obs.MemorySink{Cap: 1 << 22}
	tr := &obs.Observer{Trace: obs.NewTracer(sink)}
	a := w.newStepRun(cfg, nil)
	b := w.newStepRun(cfg, tr)
	identical := func() bool {
		if a.digest() != b.digest() {
			return false
		}
		return (a.sim.Last == nil) == (b.sim.Last == nil) &&
			(a.sim.Last == nil || a.sim.Last.Metrics == b.sim.Last.Metrics)
	}
	if !identical() {
		r.op("trace_identity") // the warm-up steps already diverged
	}
	var winA, winB stepWindow
	var wallA, wallB []float64
	var allocs, allocBytes, gcs float64
	var warpInsts float64
	var checksB [][]string
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	stepA := func() {
		rs0 := a.replayStats()
		runtime.ReadMemStats(&m0)
		wallA = append(wallA, a.advance()*1e3)
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs - m0.Mallocs)
		allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		gcs += float64(m1.NumGC - m0.NumGC)
		r.op(a.check(&winA, subReplay(a.replayStats(), rs0))...)
	}
	stepB := func() {
		rs0 := b.replayStats()
		wallB = append(wallB, b.advance()*1e3)
		rs := subReplay(b.replayStats(), rs0)
		warpInsts += float64(rs.WarpInsts)
		checksB = append(checksB, b.check(&winB, rs))
	}
	// The runs alternate which goes first, so neither always inherits the
	// other's cache and GC state.
	for i := 0; i < detSteps || time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			stepA()
			stepB()
		} else {
			stepB()
			stepA()
		}
		if !identical() {
			checksB[i] = append(checksB[i], "trace_identity")
		}
	}

	roots, err := spanTree(sink)
	if err != nil {
		return err
	}
	var steps []*span
	for _, s := range roots {
		if s.name == "bench/advance" {
			steps = append(steps, s)
		}
	}
	lt := breakdown(steps)
	for i, bad := range lt.sumBad {
		if bad && i < len(checksB) {
			checksB[i] = append(checksB[i], "layer_sum")
		}
	}
	for _, c := range checksB {
		r.op(c...)
	}

	n := float64(len(wallA))
	setLayers(r, lt)
	launchMs := lt.perStep["kernels.fixed_ms"] + lt.perStep["kernels.adaptive_ms"]
	r.set("gpusim.host_ns_per_warp_inst", ratio(launchMs*1e6*float64(lt.steps), warpInsts), lt.steps)
	setWindow(r, &winB)
	r.set("jobs.queue_wait_ms_p50", 0, 0)
	r.set("jobs.run_ms_p50", 0, 0)
	r.set("jobs.digest_mismatch", 0, 0)
	r.set("core.checkpoint_save_ms", 0, 0)
	r.set("core.checkpoint_kb", 0, 0)
	r.set("fleet.band_ms_p50", 0, 0)
	r.set("runtime.allocs_per_step", allocs/n, len(wallA))
	r.set("runtime.alloc_mb_per_step", allocBytes/1e6/n, len(wallA))
	r.set("runtime.gc_per_step", gcs/n, len(wallA))
	r.set("obs.trace_overhead_frac", median(wallB)/median(wallA)-1, len(wallB))
	r.set("step_wall_ms_p50", median(wallA), len(wallA))
	if w.kernel != hostReference {
		r.set("sim_gpu_ms_per_step", median(winB.simMs), len(winB.simMs))
		setAccuracy(r, &winB)
	}
	return nil
}

// setAccuracy records the accuracy check over the deterministic window.
func setAccuracy(r *report, win *stepWindow) {
	a := win.acc
	r.set("rp_rel_err_max", a.relErr, win.steps)
	r.set("rp_disputed_points", ratio(float64(a.disputed), float64(win.steps)), win.steps)
	r.set("rp_conv_err_max", a.kernErr, win.steps)
	r.set("rp_ref_conv_err_max", a.refErr, win.steps)
}

// spanLayers are the per-layer metrics breakdown derives from spans.
var spanLayers = []string{
	"core.advance_ms", "core.unattributed_ms", "grid.deposit_ms", "core.potentials_ms",
	"core.potentials_self_ms", "core.forces_ms", "particles.push_ms", "retard.solve_ms",
	"kernels.predict_ms", "kernels.cluster_ms", "kernels.train_ms", "kernels.fixed_ms",
	"kernels.adaptive_ms",
}

// shareLayers partition core.advance_ms: the four stages with potentials
// split into its sub-phases and its self time, plus unattributed time.
var shareLayers = []string{
	"grid.deposit_ms", "core.forces_ms", "particles.push_ms", "core.unattributed_ms",
	"core.potentials_self_ms", "retard.solve_ms", "kernels.predict_ms", "kernels.cluster_ms",
	"kernels.train_ms", "kernels.fixed_ms", "kernels.adaptive_ms",
}

// setLayers records the span-derived layer times, the reference solver's
// cache hit rates and the layer shares of core.advance_ms; a layer that
// did not run reads 0.
func setLayers(r *report, lt layerTimes) {
	for _, k := range spanLayers {
		r.set(k, lt.perStep[k], lt.steps)
	}
	r.set("retard.memo_hit_rate", ratio(lt.memoReuse, lt.memoProbe), lt.steps)
	r.set("retard.tile_hit_rate", ratio(lt.tileHits, lt.tileSolves), lt.steps)
	adv := lt.perStep["core.advance_ms"]
	r.Shares = map[string]float64{}
	for _, k := range shareLayers {
		if v := lt.perStep[k]; v > 0 && adv > 0 {
			r.Shares[k] = v / adv
		}
	}
}

// setWindow records the deterministic kernel counts of the first detSteps
// steps, per step (all 0 on the host reference).
func setWindow(r *report, win *stepWindow) {
	n := float64(win.steps)
	per := func(v float64) float64 { return ratio(v, n) }
	r.set("kernels.fallback_entries", per(float64(win.fallback)), win.steps)
	r.set("kernels.fallback_rate", ratio(float64(win.fallback), float64(win.points)), win.steps)
	r.set("kernels.launches", per(float64(win.launches)), win.steps)
	r.set("gpusim.warp_insts", per(float64(win.replay.WarpInsts)), win.steps)
	r.set("gpusim.sort_fallbacks", per(float64(win.replay.SortFallbacks)), win.steps)
	r.set("gpusim.mru_hits", per(float64(win.replay.MRUHits)), win.steps)
	r.set("gpusim.line_short_circuits", per(float64(win.replay.LineShortCircuits)), win.steps)
	r.set("gpusim.fixed_sim_ms", per(win.fixed.Time*1e3), win.steps)
	r.set("gpusim.adaptive_sim_ms", per(win.adaptive.Time*1e3), win.steps)
	m := win.total
	if win.steps == 0 {
		for _, k := range []string{"gpusim.wee", "gpusim.gle", "gpusim.l1_hit_rate", "gpusim.l2_hit_rate", "gpusim.dram_mb", "gpusim.gflops"} {
			r.set(k, 0, 0)
		}
		return
	}
	r.set("gpusim.wee", m.WarpExecutionEfficiency(), win.steps)
	r.set("gpusim.gle", m.GlobalLoadEfficiency(), win.steps)
	r.set("gpusim.l1_hit_rate", m.L1HitRate(), win.steps)
	r.set("gpusim.l2_hit_rate", m.L2HitRate(), win.steps)
	r.set("gpusim.dram_mb", per(float64(m.DRAMBytes())/1e6), win.steps)
	r.set("gpusim.gflops", m.Gflops(), win.steps)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
