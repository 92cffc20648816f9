package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/phys"
	"beamdyn/internal/retard"
)

// fixture builds a continuum history and the matching problem + square
// target (the same scenario the kernels package tests against).
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

// newTwoPhaseFleet builds a Fleet of TwoPhase kernels over mgr. TwoPhase
// carries no cross-step state, so per-band results depend only on the band
// geometry — the property the bitwise tests rely on.
func newTwoPhaseFleet(mgr Manager, bands int, seed uint64) *Fleet {
	return New(Config{
		Manager: mgr,
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewTwoPhase(dev)
		},
		Bands: bands,
		Seed:  seed,
	})
}

func counterValue(t *testing.T, snap obs.Snapshot, name string, labels map[string]string) uint64 {
	t.Helper()
outer:
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		for k, v := range labels {
			if c.Labels[k] != v {
				continue outer
			}
		}
		return c.Value
	}
	return 0
}

func TestFleetMatchesReference(t *testing.T) {
	p, target := fixture(8, 24)
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	scale := ref.MaxAbs(0)

	fl := newTwoPhaseFleet(NewFixed(testDevices(2)), 0, 1)
	out := target.Clone()
	res := fl.Step(p, out, 0)

	var worst float64
	for i := range ref.Data {
		if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Fatalf("fleet potentials deviate from reference by %g", worst)
	}
	if len(res.Points) != 24*24 {
		t.Fatalf("aggregated points = %d, want %d", len(res.Points), 24*24)
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	st := fl.LastStats()
	if st.Bands != 8 { // BandsPerDevice default 4 x 2 devices
		t.Fatalf("bands = %d, want 8", st.Bands)
	}

	// A four-device Predictive fleet, one band per device, stays within
	// tolerance once its band kernels have trained.
	pf := New(Config{
		Manager: NewFixed(testDevices(4)),
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewPredictive(dev)
		},
		Bands: 4,
		Seed:  1,
	})
	pf.Step(p, target.Clone(), 0) // bootstrap
	out = target.Clone()
	res = pf.Step(p, out, 0)
	worst = 0
	for i := range ref.Data {
		if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Fatalf("predictive fleet potentials deviate from reference by %g", worst)
	}
	if len(res.Points) != 24*24 {
		t.Fatalf("predictive fleet points = %d, want %d", len(res.Points), 24*24)
	}
}

// TestFleetChaos is the acceptance scenario: one of four devices scripted
// to fail mid-step. The fleet must complete the step, the potential grid
// must be bitwise identical to a single-device run with the same band
// decomposition, and the retried-band / state-transition counters must
// appear in the obs metrics.
func TestFleetChaos(t *testing.T) {
	p, target := fixture(8, 24)
	const bands = 8

	// Single-device baseline with the same explicit decomposition.
	single := newTwoPhaseFleet(NewFixed(testDevices(1)), bands, 1)
	baseline := target.Clone()
	single.Step(p, baseline, 0)

	// Four devices, device 1 dies during its first band of step 0.
	events, err := ParseEvents("fail:dev=1,step=0,after=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewInjectable(testDevices(4), events)
	fl := newTwoPhaseFleet(mgr, bands, 1)
	observer := obs.New()
	fl.SetObserver(observer)

	out := target.Clone()
	fl.Step(p, out, 0)

	for i := range baseline.Data {
		if out.Data[i] != baseline.Data[i] {
			t.Fatalf("potential grid diverges from single-device result at %d: %g != %g",
				i, out.Data[i], baseline.Data[i])
		}
	}

	st := fl.LastStats()
	if st.Retried < 1 {
		t.Fatalf("retried = %d, want >= 1 (a band was lost mid-step)", st.Retried)
	}
	if mgr.State(1) != Failed {
		t.Fatalf("device 1 state = %v, want Failed", mgr.State(1))
	}
	trans := mgr.Transitions()
	if len(trans) != 1 || trans[0].Device != 1 || trans[0].From != Healthy || trans[0].To != Failed {
		t.Fatalf("transitions = %+v, want one Healthy->Failed on device 1", trans)
	}

	snap := observer.Reg.Snapshot()
	if got := counterValue(t, snap, "fleet_bands_retried_total", nil); got < 1 {
		t.Fatalf("fleet_bands_retried_total = %d, want >= 1", got)
	}
	if got := counterValue(t, snap, "fleet_device_state_transitions_total",
		map[string]string{"device": "1", "to": "failed"}); got != 1 {
		t.Fatalf("fleet_device_state_transitions_total{device=1,to=failed} = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet_bands_dispatched_total", nil); got != bands {
		t.Fatalf("fleet_bands_dispatched_total = %d, want %d", got, bands)
	}
}

// TestFleetDeterministicUnderSeed repeats a chaos run and requires the
// reproducible outcomes to be identical: the output grid bitwise, the
// retried count (the scripted failure is a per-device band counter, not a
// race), and the state-transition log.
func TestFleetDeterministicUnderSeed(t *testing.T) {
	p, target := fixture(8, 24)
	run := func() (*grid.Grid, Stats, []Transition) {
		events, err := ParseEvents("fail:dev=2,step=0,after=1;slow:dev=0,step=0,factor=2")
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewInjectable(testDevices(3), events)
		fl := newTwoPhaseFleet(mgr, 6, 42)
		out := target.Clone()
		fl.Step(p, out, 0)
		return out, fl.LastStats(), mgr.Transitions()
	}
	g1, s1, t1 := run()
	g2, s2, t2 := run()
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("repeat run grid differs at %d", i)
		}
	}
	if s1.Retried != s2.Retried || s1.Bands != s2.Bands {
		t.Fatalf("repeat run stats differ: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("repeat run transitions differ: %+v vs %+v", t1, t2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("transition %d differs: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

// stubAlgo is a scripted kernels.Algorithm for scheduler-only tests: it
// writes a row sentinel and reports unit simulated time. The fleet
// rebinds it to the device running each band (SetDevice), and onStep
// receives that device's index, so per-device behaviour (host sleeps,
// call counts, simulated time) follows the executing device rather than
// the band.
type stubAlgo struct {
	mgr    Manager
	dev    *gpusim.Device
	onStep func(dev int) (simTime float64)
}

func (s *stubAlgo) Name() string                 { return "stub" }
func (s *stubAlgo) Reset()                       {}
func (s *stubAlgo) SetDevice(dev *gpusim.Device) { s.dev = dev }

func (s *stubAlgo) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	simTime := 1.0
	if s.onStep != nil {
		d := 0
		for d < s.mgr.NumDevices() && s.mgr.Device(d) != s.dev {
			d++
		}
		simTime = s.onStep(d)
	}
	for iy := 0; iy < target.NY; iy++ {
		for ix := 0; ix < target.NX; ix++ {
			target.Set(ix, iy, comp, target.Y0+float64(iy)*target.DY)
		}
	}
	res := &kernels.StepResult{Points: make([]kernels.Point, target.NX*target.NY)}
	res.Metrics.Time = simTime
	return res
}

// newStubFleet builds a Fleet of stubs over a sentinel-friendly grid
// (Y0=0, DY=1, so the expected row value is exactly float64(row)); onStep
// may be nil.
func newStubFleet(mgr Manager, bands int, onStep func(dev int) float64) *Fleet {
	return New(Config{
		Manager: mgr,
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return &stubAlgo{mgr: mgr, dev: dev, onStep: onStep}
		},
		Bands: bands,
		Seed:  7,
	})
}

func assertFullTarget(t *testing.T, g *grid.Grid) {
	t.Helper()
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			if got, want := g.At(ix, iy, 0), float64(iy); got != want {
				t.Fatalf("row %d col %d = %g, want %g (band never reassembled?)", iy, ix, got, want)
			}
		}
	}
}

func TestFleetBandEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		ny, devices int
		bands       int
	}{
		{"fewer rows than devices", 3, 4, 0},
		{"rows not divisible by bands", 7, 2, 3},
		{"single device degenerate", 12, 1, 0},
		{"more bands than rows allow", 8, 2, 100},
		{"two-row minimum caps bands", 5, 3, 3},
		{"even split", 16, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := newStubFleet(NewFixed(testDevices(tc.devices)), tc.bands, nil)
			target := grid.New(4, tc.ny, 1, 0, 0, 1, 1)
			res := fl.Step(nil, target, 0)
			assertFullTarget(t, target)
			if got, want := len(res.Points), 4*tc.ny; got != want {
				t.Fatalf("aggregated points = %d, want %d", got, want)
			}
		})
	}
}

func TestFleetWorkStealing(t *testing.T) {
	// Device 0 is slow on the host (bands it runs sleep), so device 1
	// drains its own queue and steals from device 0's backlog.
	var slowCalls, fastCalls atomic.Int32
	fl := newStubFleet(NewFixed(testDevices(2)), 8, func(dev int) float64 {
		if dev == 0 {
			slowCalls.Add(1)
			time.Sleep(30 * time.Millisecond)
		} else {
			fastCalls.Add(1)
		}
		return 1
	})
	target := grid.New(4, 16, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	st := fl.LastStats()
	if st.Stolen < 1 {
		t.Fatalf("stolen = %d, want >= 1 (fast device should raid the slow queue)", st.Stolen)
	}
	if fastCalls.Load() <= slowCalls.Load() {
		t.Fatalf("fast device ran %d bands vs slow %d; stealing should shift work",
			fastCalls.Load(), slowCalls.Load())
	}
	if st.Stolen+st.Retried > st.Bands {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestFleetSkipsUnschedulableDevices(t *testing.T) {
	mgr := NewFixed(testDevices(3))
	mgr.SetState(2, Draining, "maintenance")
	var calls [3]atomic.Int32
	fl := newStubFleet(mgr, 6, func(dev int) float64 {
		calls[dev].Add(1)
		return 1
	})
	target := grid.New(4, 12, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	if calls[2].Load() != 0 {
		t.Fatalf("draining device executed %d bands, want 0", calls[2].Load())
	}
	if calls[0].Load()+calls[1].Load() != 6 {
		t.Fatalf("surviving devices ran %d+%d bands, want 6", calls[0].Load(), calls[1].Load())
	}
}

func TestFleetDegradedDeviceGetsLessWork(t *testing.T) {
	// With uniform costs, the LPT placement charges the 4x-degraded device
	// four simulated seconds per band, so it receives far fewer bands. Bands
	// on the degraded device also sleep on the host (a slow device is slow
	// in wall time too), so stealing cannot shift the imbalance back.
	mgr := NewFixed(testDevices(2))
	mgr.SetState(1, Degraded, "thermal throttling")
	mgr.SetSlowdown(1, 4)
	var calls [2]atomic.Int32
	fl := newStubFleet(mgr, 8, func(dev int) float64 {
		calls[dev].Add(1)
		if dev == 1 {
			time.Sleep(10 * time.Millisecond)
		}
		return 1
	})
	target := grid.New(4, 16, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	if calls[1].Load() >= calls[0].Load() {
		t.Fatalf("degraded device ran %d bands vs healthy %d, want fewer",
			calls[1].Load(), calls[0].Load())
	}
	st := fl.LastStats()
	if st.Busy[1] != float64(calls[1].Load())*4 {
		t.Fatalf("degraded busy time %g, want %d bands x 4", st.Busy[1], calls[1].Load())
	}
}

// forecastStub is a stub kernel that also forecasts row costs, standing in
// for a trained Predictive kernel: one cost per row of the band it is
// asked about, growing with the row's global index.
type forecastStub struct {
	stubAlgo
}

func (f *forecastStub) ForecastRowCosts(p *retard.Problem, target *grid.Grid) []float64 {
	rows := make([]float64, target.NY)
	for iy := range rows {
		rows[iy] = 1 + target.Y0 + float64(iy)*target.DY
	}
	return rows
}

func TestFleetUsesCostForecast(t *testing.T) {
	fl := New(Config{
		Manager: NewFixed(testDevices(2)),
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return &forecastStub{}
		},
		Bands: 4,
		Seed:  1,
	})
	observer := obs.New()
	fl.SetObserver(observer)
	target := grid.New(4, 16, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	snap := observer.Reg.Snapshot()
	if got := counterValue(t, snap, "fleet_cost_source_total", map[string]string{"source": "forecast"}); got != 1 {
		t.Fatalf("fleet_cost_source_total{source=forecast} = %d, want 1", got)
	}

	// A fleet without a forecaster bootstraps with uniform costs, then
	// falls back to the previous step's measured band costs.
	fl2 := newStubFleet(NewFixed(testDevices(2)), 4, nil)
	fl2.SetObserver(observer)
	fl2.Step(nil, target, 0)
	fl2.Step(nil, target, 0)
	snap = observer.Reg.Snapshot()
	if got := counterValue(t, snap, "fleet_cost_source_total", map[string]string{"source": "measured"}); got != 1 {
		t.Fatalf("fleet_cost_source_total{source=measured} = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet_cost_source_total", map[string]string{"source": "uniform"}); got != 1 {
		t.Fatalf("fleet_cost_source_total{source=uniform} = %d, want 1", got)
	}
}

func TestFleetNameAndReset(t *testing.T) {
	fl := newTwoPhaseFleet(NewFixed(testDevices(3)), 0, 1)
	if fl.Name() != "Fleet[Two-Phase-RP x3]" {
		t.Fatalf("name = %q", fl.Name())
	}
	fl.Reset() // must not panic and must drop measured costs
}

func TestFleetPanicsWhenNoDevicesSchedulable(t *testing.T) {
	mgr := NewFixed(testDevices(1))
	mgr.SetState(0, Failed, "dead on arrival")
	fl := newStubFleet(mgr, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling onto an all-failed fleet did not panic")
		}
	}()
	fl.Step(nil, grid.New(4, 8, 1, 0, 0, 1, 1), 0)
}

// TestFleetScales is the strong-scaling check: four devices with one band
// each finish a trained Predictive step at least twice as fast in
// simulated time as one device.
func TestFleetScales(t *testing.T) {
	p, target := fixture(8, 48)
	time := func(devices int) float64 {
		fl := New(Config{
			Manager: NewFixed(testDevices(devices)),
			MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
				return kernels.NewPredictive(dev)
			},
			Bands: devices,
			Seed:  1,
		})
		fl.Step(p, target.Clone(), 0)
		res := fl.Step(p, target.Clone(), 0)
		return res.Metrics.Time
	}
	t1 := time(1)
	t4 := time(4)
	speedup := t1 / t4
	if speedup < 2 {
		t.Fatalf("4-device speedup %.2f, want >= 2 (t1=%g t4=%g)", speedup, t1, t4)
	}
	if speedup > 4.5 {
		t.Fatalf("super-linear speedup %.2f is implausible", speedup)
	}
}

func TestFleetTimeIsMaxNotSum(t *testing.T) {
	// Device d's bands take d+1 simulated seconds. Every band sleeps on
	// the host long enough that each worker takes its own queue head
	// before any worker could go stealing, so each device runs one band.
	fl := newStubFleet(NewFixed(testDevices(4)), 4, func(dev int) float64 {
		time.Sleep(20 * time.Millisecond)
		return float64(dev + 1)
	})
	target := grid.New(8, 16, 1, 0, 0, 1, 1)
	res := fl.Step(nil, target, 0)
	// Devices run concurrently in simulated time: the aggregate is the
	// slowest device (4), not the sum (10).
	if res.Metrics.Time != 4 {
		t.Fatalf("aggregated Metrics.Time = %g, want max 4 (sum would be 10); stats %+v",
			res.Metrics.Time, fl.LastStats())
	}
	assertFullTarget(t, target)
}

func TestFleetBandsRunConcurrently(t *testing.T) {
	var running, peak atomic.Int32
	const devices = 4
	fl := newStubFleet(NewFixed(testDevices(devices)), devices, func(int) float64 {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		running.Add(-1)
		return 1
	})
	target := grid.New(8, 16, 1, 0, 0, 1, 1)
	t0 := time.Now()
	fl.Step(nil, target, 0)
	wall := time.Since(t0)
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrent band Steps = %d, want >= 2", p)
	}
	// Sequential execution would take >= devices * sleep = 200ms.
	if wall >= devices*50*time.Millisecond {
		t.Fatalf("wall time %v not faster than sequential execution", wall)
	}
	assertFullTarget(t, target)
}

func TestFleetForwardsObserver(t *testing.T) {
	p, target := fixture(8, 24)
	fl := New(Config{
		Manager: NewFixed(testDevices(2)),
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewPredictive(dev)
		},
		Bands: 2,
		Seed:  1,
	})
	o := obs.New()
	fl.SetObserver(o)
	fl.Step(p, target.Clone(), 0)
	if len(o.Pred.Samples()) != 2 {
		t.Fatalf("per-band samples = %d, want 2", len(o.Pred.Samples()))
	}
}

// recordingKernel is a Predictive kernel that keeps every StepResult it
// returns, so tests can compare the fleet aggregate with its bands.
type recordingKernel struct {
	*kernels.Predictive
	mu      *sync.Mutex
	results *[]*kernels.StepResult
}

func (r recordingKernel) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	res := r.Predictive.Step(p, target, comp)
	r.mu.Lock()
	*r.results = append(*r.results, res)
	r.mu.Unlock()
	return res
}

// TestFleetSumsHostAllocs checks that the aggregate step result carries
// the per-phase host allocation counts of its bands, not only their
// times.
func TestFleetSumsHostAllocs(t *testing.T) {
	kernels.CountHostAllocs = true
	defer func() { kernels.CountHostAllocs = false }()
	p, target := fixture(8, 24)
	var mu sync.Mutex
	var bands []*kernels.StepResult
	fl := New(Config{
		Manager: NewFixed(testDevices(2)),
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return recordingKernel{Predictive: kernels.NewPredictive(dev), mu: &mu, results: &bands}
		},
		Bands: 4,
		Seed:  1,
	})
	res := fl.Step(p, target.Clone(), 0)
	if len(bands) != 4 {
		t.Fatalf("recorded %d band results, want 4", len(bands))
	}
	var want kernels.HostTimes
	for _, b := range bands {
		want.PredictAllocs += b.Host.PredictAllocs
		want.ClusteringAllocs += b.Host.ClusteringAllocs
		want.TrainAllocs += b.Host.TrainAllocs
	}
	if want.PredictAllocs+want.ClusteringAllocs+want.TrainAllocs == 0 {
		t.Fatal("bands counted no host allocations; the check would be vacuous")
	}
	got := res.Host
	if got.PredictAllocs != want.PredictAllocs || got.ClusteringAllocs != want.ClusteringAllocs ||
		got.TrainAllocs != want.TrainAllocs {
		t.Fatalf("aggregate host allocs predict/cluster/train = %d/%d/%d, want band sums %d/%d/%d",
			got.PredictAllocs, got.ClusteringAllocs, got.TrainAllocs,
			want.PredictAllocs, want.ClusteringAllocs, want.TrainAllocs)
	}
}

func TestBandSplit(t *testing.T) {
	cases := []struct {
		ny, want int
		bands    [][2]int
	}{
		{16, 4, [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{3, 4, [][2]int{{0, 3}}},         // can't give 4 devices >= 2 rows each
		{5, 3, [][2]int{{0, 3}, {3, 5}}}, // capped at NY/2 bands
		{2, 5, [][2]int{{0, 2}}},         // minimum grid
		{10, 0, [][2]int{{0, 10}}},       // degenerate request
		{64, 8, nil},                     // checked structurally below
	}
	for _, tc := range cases {
		got := BandSplit(tc.ny, tc.want)
		// Structural invariants: contiguous cover of [0, ny), every band
		// at least 2 rows (unless ny < 4 forces a single band), sizes
		// within one row of each other.
		lo := 0
		minH, maxH := tc.ny, 0
		for _, b := range got {
			if b[0] != lo {
				t.Fatalf("BandSplit(%d,%d): band %v not contiguous at %d", tc.ny, tc.want, b, lo)
			}
			h := b[1] - b[0]
			if h < 2 && len(got) > 1 {
				t.Fatalf("BandSplit(%d,%d): band %v below 2-row minimum", tc.ny, tc.want, b)
			}
			if h < minH {
				minH = h
			}
			if h > maxH {
				maxH = h
			}
			lo = b[1]
		}
		if lo != tc.ny {
			t.Fatalf("BandSplit(%d,%d): covers [0,%d), want [0,%d)", tc.ny, tc.want, lo, tc.ny)
		}
		if maxH-minH > 1 {
			t.Fatalf("BandSplit(%d,%d): unbalanced band heights %d..%d", tc.ny, tc.want, minH, maxH)
		}
		if tc.bands != nil {
			if len(got) != len(tc.bands) {
				t.Fatalf("BandSplit(%d,%d) = %v, want %v", tc.ny, tc.want, got, tc.bands)
			}
			for i := range got {
				if got[i] != tc.bands[i] {
					t.Fatalf("BandSplit(%d,%d) = %v, want %v", tc.ny, tc.want, got, tc.bands)
				}
			}
		}
	}
}
