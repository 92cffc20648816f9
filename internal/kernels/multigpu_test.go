package kernels_test

// Multi-device tests: the kernels run one row-band per simulated device
// through the fleet scheduler with Bands = devices, the static split the
// paper's multi-GPU runs use.

import (
	"math"
	"testing"

	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/retard"
)

func devices(n int) []*gpusim.Device {
	devs := make([]*gpusim.Device, n)
	for i := range devs {
		devs[i] = gpusim.New(gpusim.KeplerK40())
	}
	return devs
}

// multiGPU runs one band per device, each band's kernel built by mk.
func multiGPU(devs []*gpusim.Device, mk func(dev *gpusim.Device) kernels.Algorithm) *fleet.Fleet {
	return fleet.New(fleet.Config{
		Manager:    fleet.NewFixed(devs),
		MakeKernel: mk,
		Bands:      len(devs),
		Seed:       1,
	})
}

// rowStub writes each band point's physical y into the target (so full
// reassembly is checkable bitwise on a unit-spaced grid) and reports one
// unit of simulated time.
type rowStub struct{}

func (rowStub) Name() string { return "stub" }
func (rowStub) Reset()       {}

func (rowStub) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	for iy := 0; iy < target.NY; iy++ {
		for ix := 0; ix < target.NX; ix++ {
			target.Set(ix, iy, comp, target.Y0+float64(iy)*target.DY)
		}
	}
	res := &kernels.StepResult{Points: make([]kernels.Point, target.NX*target.NY)}
	res.Metrics.Time = 1
	return res
}

func TestMultiGPUMatchesSingleDevice(t *testing.T) {
	p, target := kernels.Fixture(8, 32)
	ref := target.Clone()
	p.SolveGrid(ref, 0)
	scale := ref.MaxAbs(0)

	m := multiGPU(devices(4), func(dev *gpusim.Device) kernels.Algorithm {
		return kernels.NewPredictive(dev)
	})
	m.Step(p, target.Clone(), 0) // bootstrap
	out := target.Clone()
	res := m.Step(p, out, 0)

	var worst float64
	for i := range ref.Data {
		if d := math.Abs(ref.Data[i]-out.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Fatalf("multi-GPU potentials deviate by %g", worst)
	}
	if len(res.Points) != 32*32 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("no time")
	}
}

func TestMultiGPUBandEdgeCases(t *testing.T) {
	cases := []struct {
		name         string
		ny, devices  int
		wantMaxBands int
	}{
		{"fewer rows than devices", 3, 4, 1},
		{"rows not divisible by devices", 7, 3, 3},
		{"two-row minimum caps bands", 5, 3, 2},
		{"single device degenerate", 9, 1, 1},
		{"even split", 16, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := multiGPU(devices(tc.devices), func(*gpusim.Device) kernels.Algorithm {
				return rowStub{}
			})
			target := grid.New(4, tc.ny, 1, 0, 0, 1, 1)
			res := m.Step(nil, target, 0)
			for iy := 0; iy < target.NY; iy++ {
				for ix := 0; ix < target.NX; ix++ {
					if got, want := target.At(ix, iy, 0), float64(iy); got != want {
						t.Fatalf("row %d col %d = %g, want %g (band never written?)", iy, ix, got, want)
					}
				}
			}
			if got, want := len(res.Points), 4*tc.ny; got != want {
				t.Fatalf("aggregated points = %d, want %d", got, want)
			}
			if got := m.LastStats().Bands; got != tc.wantMaxBands {
				t.Fatalf("bands = %d, want %d", got, tc.wantMaxBands)
			}
		})
	}
}

// TestMultiGPUEngineEquivalence runs the band-decomposed kernel with every
// device on one engine, then the other: the aggregated Metrics (one band
// per device, so placement is fixed and per-device modelled times are
// deterministic) and output grids must match exactly.
func TestMultiGPUEngineEquivalence(t *testing.T) {
	p, target := kernels.Fixture(8, 16)

	run := func(engine gpusim.Engine) (*kernels.StepResult, []float64) {
		devs := devices(2)
		for _, dev := range devs {
			dev.SetEngine(engine)
		}
		mg := multiGPU(devs, func(dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewTwoPhase(dev)
		})
		tg := target.Clone()
		res := mg.Step(p, tg, 0)
		return res, append([]float64(nil), tg.Data...)
	}

	sres, sdata := run(gpusim.EngineStreaming)
	ores, odata := run(gpusim.EngineOracle)
	for i := range sdata {
		if sdata[i] != odata[i] {
			t.Fatalf("grid datum %d = %v streaming, %v oracle", i, sdata[i], odata[i])
		}
	}
	if sres.Metrics != ores.Metrics {
		t.Fatalf("multigpu Metrics diverge\nstreaming: %+v\noracle:    %+v", sres.Metrics, ores.Metrics)
	}
	if sres.Fixed != ores.Fixed || sres.Adaptive != ores.Adaptive {
		t.Fatalf("multigpu phase Metrics diverge\nstreaming: %+v / %+v\noracle:    %+v / %+v",
			sres.Fixed, sres.Adaptive, ores.Fixed, ores.Adaptive)
	}
}

func TestMultiGPUNameAndReset(t *testing.T) {
	m := multiGPU(devices(2), func(dev *gpusim.Device) kernels.Algorithm {
		return kernels.NewHeuristic(dev)
	})
	if m.Name() != "Fleet[Heuristic-RP x2]" {
		t.Fatalf("name %q", m.Name())
	}
	m.Reset() // must not panic
}

func TestNewMultiGPUPanicsOnZeroDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 devices did not panic")
		}
	}()
	multiGPU(nil, func(dev *gpusim.Device) kernels.Algorithm {
		return kernels.NewPredictive(dev)
	})
}
