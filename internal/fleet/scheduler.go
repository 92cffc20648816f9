package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
	"beamdyn/internal/rng"
)

// Config configures a Fleet.
type Config struct {
	// Manager is the device registry the scheduler runs against.
	Manager Manager
	// MakeKernel builds one band's kernel, bound to dev. It is invoked
	// once per band: the kernel owns the band's learned state, and the
	// scheduler rebinds it (kernels.Rebindable) to whichever device runs
	// the band, so a band forecasts only from its own history.
	MakeKernel func(dev *gpusim.Device) kernels.Algorithm
	// Bands fixes the total row-band count of the over-decomposition.
	// 0 derives it as BandsPerDevice * NumDevices. Holding Bands constant
	// across device counts makes the per-band numerics identical, which
	// is what the bitwise fault-tolerance tests rely on.
	Bands int
	// BandsPerDevice is the over-decomposition factor (default 4): more
	// bands per device means finer-grained stealing and retry at the cost
	// of more kernel launches.
	BandsPerDevice int
	// Seed drives every stochastic scheduler choice (steal victim, retry
	// placement), per the repository's explicit-seed convention.
	Seed uint64
}

// Stats summarises the scheduler's behaviour during one Step.
type Stats struct {
	// Bands is the number of bands dispatched (the over-decomposition).
	Bands int
	// Stolen counts bands executed by a device other than the one the
	// cost-predicting placement chose.
	Stolen int
	// Retried counts bands re-placed after their device failed or became
	// unavailable mid-step.
	Retried int
	// Busy is the per-device simulated busy time (band kernel time scaled
	// by the device's slowdown factor), including doomed attempts.
	Busy []float64
}

// Utilization returns device d's busy time as a fraction of the busiest
// device's (0 when the step did no work).
func (s Stats) Utilization(d int) float64 {
	var max float64
	for _, b := range s.Busy {
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return s.Busy[d] / max
}

// Fleet runs a compute-potentials kernel across a managed device fleet
// with dynamic, cost-predicted band scheduling. It implements
// kernels.Algorithm, so it drops into core.Simulation, the benches and
// the experiments harness wherever a single-device kernel would.
type Fleet struct {
	cfg   Config
	mgr   Manager
	algos []kernels.Algorithm // one kernel per band, in band order
	obs   *obs.Observer

	// rowCost is the measured per-row simulated cost of the previous
	// step, the placement fallback when no trained forecaster is
	// available.
	rowCost []float64
	// seen counts manager transitions already mirrored into the registry.
	seen int

	mu   sync.Mutex
	last Stats
}

// New builds a Fleet over cfg.Manager's devices.
func New(cfg Config) *Fleet {
	if cfg.Manager == nil {
		panic("fleet: Config.Manager is nil")
	}
	if cfg.MakeKernel == nil {
		panic("fleet: Config.MakeKernel is nil")
	}
	n := cfg.Manager.NumDevices()
	nb := cfg.Bands
	if nb <= 0 {
		per := cfg.BandsPerDevice
		if per <= 0 {
			per = 4
		}
		nb = per * n
	}
	f := &Fleet{cfg: cfg, mgr: cfg.Manager, algos: make([]kernels.Algorithm, nb)}
	for b := range f.algos {
		f.algos[b] = cfg.MakeKernel(cfg.Manager.Device(b % n))
	}
	return f
}

// Name implements kernels.Algorithm.
func (f *Fleet) Name() string {
	return fmt.Sprintf("Fleet[%s x%d]", f.algos[0].Name(), f.mgr.NumDevices())
}

// Reset implements kernels.Algorithm.
func (f *Fleet) Reset() {
	for _, a := range f.algos {
		a.Reset()
	}
	f.rowCost = nil
}

// SetObserver implements kernels.Observable, forwarding the telemetry
// layer to every band's kernel.
func (f *Fleet) SetObserver(o *obs.Observer) {
	f.obs = o
	for _, a := range f.algos {
		if ob, ok := a.(kernels.Observable); ok {
			ob.SetObserver(o)
		}
	}
}

// SetHostWorkers implements kernels.HostParallel, forwarding the host
// worker budget to every band's kernel that supports it.
func (f *Fleet) SetHostWorkers(n int) {
	for _, a := range f.algos {
		if hp, ok := a.(kernels.HostParallel); ok {
			hp.SetHostWorkers(n)
		}
	}
}

// LastStats returns the scheduler statistics of the most recent Step.
func (f *Fleet) LastStats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.last
	s.Busy = append([]float64(nil), f.last.Busy...)
	return s
}

// bandTask is one row-band of the over-decomposition.
type bandTask struct {
	index  int
	lo, hi int // target rows [lo, hi)
	cost   float64
	band   *grid.Grid
	res    *kernels.StepResult
}

// Step implements kernels.Algorithm: decompose, place by predicted cost,
// dispatch through per-device workers with stealing and failure retry,
// reassemble.
func (f *Fleet) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	n := f.mgr.NumDevices()
	f.mgr.BeginStep(target.Step)
	sp := f.obs.Span("fleet/step", target.Step)

	tasks := f.decompose(target)
	for _, t := range tasks {
		t.band = bandGrid(target, t.lo, t.hi)
	}
	f.applyCosts(p, target, tasks)

	var avail []int
	for d := 0; d < n; d++ {
		if f.mgr.State(d).Schedulable() {
			avail = append(avail, d)
		}
	}
	if len(avail) == 0 {
		panic(fmt.Sprintf("fleet: no schedulable devices at step %d", target.Step))
	}

	// Cost-predicted placement: longest-processing-time greedy — most
	// expensive band first onto the device whose predicted completion
	// (current load plus the band's cost scaled by the device's slowdown)
	// is earliest. Deterministic: ties break on device order.
	order := make([]*bandTask, len(tasks))
	copy(order, tasks)
	sort.SliceStable(order, func(i, j int) bool { return order[i].cost > order[j].cost })
	load := make([]float64, n)
	queues := make([][]*bandTask, n)
	for _, t := range order {
		best, bestDone := -1, 0.0
		for _, d := range avail {
			done := load[d] + t.cost*f.mgr.Slowdown(d)
			if best < 0 || done < bestDone {
				best, bestDone = d, done
			}
		}
		load[best] = bestDone
		queues[best] = append(queues[best], t)
	}

	r := &fleetRun{
		step:    target.Step,
		queues:  queues,
		pending: len(tasks),
		alive:   make([]bool, n),
		scope:   sp.Scope(),
		rng:     rng.New(f.cfg.Seed ^ (uint64(target.Step)+1)*0x9e3779b97f4a7c15),
	}
	r.cond = sync.NewCond(&r.mu)
	busy := make([]float64, n)
	for _, d := range avail {
		r.alive[d] = true
	}
	var wg sync.WaitGroup
	for _, d := range avail {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f.worker(r, d, p, target, comp, busy)
		}(d)
	}
	wg.Wait()

	agg := f.reassemble(target, comp, tasks, busy)
	f.measureCosts(target, tasks)

	f.mu.Lock()
	f.last = Stats{Bands: len(tasks), Stolen: r.stolen, Retried: r.retried, Busy: busy}
	f.mu.Unlock()
	f.record(target.Step, len(tasks), r.stolen, r.retried, busy)
	sp.End(obs.I("bands", len(tasks)), obs.I("stolen", r.stolen),
		obs.I("retried", r.retried), obs.F("sim_sec", agg.Metrics.Time))
	return agg
}

// decompose splits the target's rows into one contiguous band per band
// kernel, each at least two rows tall (the grid minimum), sizes differing
// by at most one row.
func (f *Fleet) decompose(target *grid.Grid) []*bandTask {
	bounds := BandSplit(target.NY, len(f.algos))
	tasks := make([]*bandTask, 0, len(bounds))
	for i, b := range bounds {
		tasks = append(tasks, &bandTask{index: i, lo: b[0], hi: b[1]})
	}
	return tasks
}

// BandSplit splits ny rows into at most want contiguous bands of at least
// two rows each (the grid minimum), sizes differing by at most one row.
// It returns the [lo, hi) bounds in row order. Fewer than want bands come
// back when ny cannot feed them all, rather than sub-minimal grids.
func BandSplit(ny, want int) [][2]int {
	if want < 1 {
		want = 1
	}
	if max := ny / 2; want > max {
		want = max
	}
	if want < 1 {
		want = 1
	}
	base, rem := ny/want, ny%want
	out := make([][2]int, 0, want)
	lo := 0
	for i := 0; i < want; i++ {
		h := base
		if i < rem {
			h++
		}
		out = append(out, [2]int{lo, lo + h})
		lo += h
	}
	return out
}

// applyCosts fills each band's predicted cost: the per-row access-pattern
// totals its own kernel forecasts when every band's kernel has a trained
// forecast, the previous step's measured per-row cost otherwise, uniform
// row counts as the bootstrap.
func (f *Fleet) applyCosts(p *retard.Problem, target *grid.Grid, tasks []*bandTask) {
	source := "forecast"
	for _, t := range tasks {
		var rc []float64
		if cf, ok := f.algos[t.index].(kernels.CostForecaster); ok {
			rc = cf.ForecastRowCosts(p, t.band)
		}
		if len(rc) != t.hi-t.lo {
			source = "uniform"
			break
		}
		for _, c := range rc {
			t.cost += c
		}
	}
	if source == "uniform" && len(f.rowCost) == target.NY {
		source = "measured"
	}
	for _, t := range tasks {
		switch source {
		case "measured":
			t.cost = 0
			for iy := t.lo; iy < t.hi; iy++ {
				t.cost += f.rowCost[iy]
			}
		case "uniform":
			t.cost = float64(t.hi - t.lo)
		}
	}
	if f.obs != nil && f.obs.Reg != nil {
		f.obs.Reg.Counter("fleet_cost_source_total", obs.Label{Key: "source", Value: source}).Inc()
	}
}

// measureCosts records this step's measured per-row simulated cost as the
// next step's placement fallback.
func (f *Fleet) measureCosts(target *grid.Grid, tasks []*bandTask) {
	if cap(f.rowCost) < target.NY {
		f.rowCost = make([]float64, target.NY)
	}
	f.rowCost = f.rowCost[:target.NY]
	for _, t := range tasks {
		perRow := t.res.Metrics.Time / float64(t.hi-t.lo)
		for iy := t.lo; iy < t.hi; iy++ {
			f.rowCost[iy] = perRow
		}
	}
}

// fleetRun is the shared state of one Step's worker pool.
type fleetRun struct {
	mu      sync.Mutex
	cond    *sync.Cond
	step    int
	queues  [][]*bandTask
	pending int
	alive   []bool
	scope   *obs.Observer // fleet/step span scope; band spans parent here
	rng     *rng.Source
	stolen  int
	retried int
}

// worker is the per-device dispatch loop: drain the own queue, steal when
// idle, exit on device death (after re-placing the doomed band) or when
// every band has completed.
func (f *Fleet) worker(r *fleetRun, d int, p *retard.Problem, target *grid.Grid, comp int, busy []float64) {
	for {
		t := r.next(d)
		if t == nil {
			return
		}
		// Each band executes under its own child span of fleet/step; the
		// band's kernel is re-scoped so its sub-phase spans parent under
		// the band, then rebound to this worker's device. Only the worker
		// holding the band touches its kernel, so both are race-free.
		bsp := r.scope.Span("fleet/band", r.step)
		k := f.algos[t.index]
		if ob, ok := k.(kernels.Observable); ok {
			ob.SetObserver(bsp.Scope())
		}
		var res *kernels.StepResult
		err := f.mgr.ExecBand(d, func(dev *gpusim.Device) {
			if f.mgr.State(d) == Failed {
				// The device dies during this band and its results never
				// reach the host: run the lost attempt on a scratch kernel
				// so the band's learned state is intact for the retry.
				res = f.cfg.MakeKernel(dev).Step(p, t.band, comp)
				return
			}
			if rb, ok := k.(kernels.Rebindable); ok {
				rb.SetDevice(dev)
			}
			res = k.Step(p, t.band, comp)
		})
		if res != nil {
			// Even a doomed attempt kept the device busy until it died.
			busy[d] += res.Metrics.Time * f.mgr.Slowdown(d)
		}
		if err != nil {
			// The band's results (if any) are void: rebuild its grid so
			// the retry starts clean, then hand it to a survivor.
			t.band = bandGrid(target, t.lo, t.hi)
			bsp.End(obs.I("device", d), obs.I("band", t.index),
				obs.I("rows", t.hi-t.lo), obs.S("outcome", "failed"))
			r.fail(d, t)
			return
		}
		t.res = res
		bsp.End(obs.I("device", d), obs.I("band", t.index),
			obs.I("rows", t.hi-t.lo), obs.F("sim_sec", res.Metrics.Time))
		r.done()
	}
}

// next returns the worker's next band: its own queue head, else a steal
// from a seeded-random victim with queued work (dead devices' abandoned
// queues included), else it waits for in-flight bands to finish or fail.
// A nil return means the step is over for this worker.
func (r *fleetRun) next(d int) *bandTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.pending == 0 || !r.alive[d] {
			return nil
		}
		if q := r.queues[d]; len(q) > 0 {
			r.queues[d] = q[1:]
			return q[0]
		}
		var victims []int
		for v := range r.queues {
			if v != d && len(r.queues[v]) > 0 {
				victims = append(victims, v)
			}
		}
		if len(victims) > 0 {
			// Steal the cheapest queued band from the victim's tail,
			// leaving its expensive head where the placement wanted it.
			v := victims[r.rng.Intn(len(victims))]
			q := r.queues[v]
			t := q[len(q)-1]
			r.queues[v] = q[:len(q)-1]
			r.stolen++
			return t
		}
		r.cond.Wait()
	}
}

// done marks one band complete.
func (r *fleetRun) done() {
	r.mu.Lock()
	r.pending--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// fail marks device d dead and re-places its in-flight band on a
// surviving worker chosen from the seeded stream. The dead device's
// remaining queue stays where it is — survivors steal from it.
func (r *fleetRun) fail(d int, t *bandTask) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alive[d] = false
	r.retried++
	var survivors []int
	for v, ok := range r.alive {
		if ok {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		panic(fmt.Sprintf("fleet: band %d lost at step %d: no surviving devices", t.index, r.step))
	}
	v := survivors[r.rng.Intn(len(survivors))]
	r.queues[v] = append(r.queues[v], t)
	r.cond.Broadcast()
}

// reassemble copies every band's potentials into the target and
// aggregates the per-band step results in deterministic band order.
func (f *Fleet) reassemble(target *grid.Grid, comp int, tasks []*bandTask, busy []float64) *kernels.StepResult {
	agg := &kernels.StepResult{}
	agg.Points = make([]kernels.Point, target.NX*target.NY)
	for _, t := range tasks {
		band, res := t.band, t.res
		for iy := 0; iy < band.NY; iy++ {
			for ix := 0; ix < band.NX; ix++ {
				target.Set(ix, t.lo+iy, comp, band.At(ix, iy, comp))
			}
		}
		copy(agg.Points[t.lo*target.NX:t.hi*target.NX], res.Points)
		agg.Metrics.Add(res.Metrics)
		agg.Fixed.Add(res.Fixed)
		agg.Adaptive.Add(res.Adaptive)
		agg.Host.Clustering += res.Host.Clustering
		agg.Host.Predict += res.Host.Predict
		agg.Host.Train += res.Host.Train
		agg.Host.ClusteringAllocs += res.Host.ClusteringAllocs
		agg.Host.PredictAllocs += res.Host.PredictAllocs
		agg.Host.TrainAllocs += res.Host.TrainAllocs
		agg.FallbackEntries += res.FallbackEntries
		agg.Launches += res.Launches
		if len(res.FallbackBySubregion) > 0 {
			if agg.FallbackBySubregion == nil {
				agg.FallbackBySubregion = make([]int, len(res.FallbackBySubregion))
			}
			for j, v := range res.FallbackBySubregion {
				if j < len(agg.FallbackBySubregion) {
					agg.FallbackBySubregion[j] += v
				}
			}
		}
	}
	// The step finishes when the busiest device does.
	var maxBusy float64
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	agg.Metrics.Time = maxBusy
	return agg
}

// record mirrors the step's fleet behaviour into the metrics registry
// and, when a trace sink is attached, emits one "fleet/device" event per
// device so offline trace analysis (obstool fleet) can reconstruct
// per-device utilization and state without the registry snapshot.
func (f *Fleet) record(step, bands, stolen, retried int, busy []float64) {
	if f.obs == nil {
		return
	}
	var maxBusy float64
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	if reg := f.obs.Reg; reg != nil {
		reg.Counter("fleet_steps_total").Inc()
		reg.Counter("fleet_bands_dispatched_total").Add(uint64(bands))
		reg.Counter("fleet_bands_stolen_total").Add(uint64(stolen))
		reg.Counter("fleet_bands_retried_total").Add(uint64(retried))
		for d := range busy {
			lbl := obs.Label{Key: "device", Value: strconv.Itoa(d)}
			reg.Gauge("fleet_device_busy_sim_seconds", lbl).Add(busy[d])
			if maxBusy > 0 {
				reg.Gauge("fleet_device_utilization", lbl).Set(busy[d] / maxBusy)
			}
			reg.Gauge("fleet_device_state", lbl).Set(float64(f.mgr.State(d)))
		}
		trans := f.mgr.Transitions()
		for _, tr := range trans[f.seen:] {
			reg.Counter("fleet_device_state_transitions_total",
				obs.Label{Key: "device", Value: strconv.Itoa(tr.Device)},
				obs.Label{Key: "to", Value: tr.To.String()}).Inc()
		}
		f.seen = len(trans)
	}
	if f.obs.TraceEnabled() {
		for d := range busy {
			util := 0.0
			if maxBusy > 0 {
				util = busy[d] / maxBusy
			}
			f.obs.Event("fleet/device", step,
				obs.I("device", d),
				obs.S("state", f.mgr.State(d).String()),
				obs.F("slowdown", f.mgr.Slowdown(d)),
				obs.F("busy_sim_sec", busy[d]),
				obs.F("utilization", util))
		}
	}
}

// bandGrid builds the [lo, hi) row-band view of target as a standalone
// grid whose geometry matches the band's rows.
func bandGrid(target *grid.Grid, lo, hi int) *grid.Grid {
	b := grid.New(target.NX, hi-lo, target.Comp,
		target.X0, target.Y0+float64(lo)*target.DY, target.DX, target.DY)
	b.Step = target.Step
	return b
}
