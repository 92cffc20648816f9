package fleet

import (
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
)

// TestFleetEngineEquivalence closes the A/B matrix at the top of the
// stack: a fleet-scheduled step produces bitwise-identical grid output and
// ==-equal aggregated Metrics whichever replay engine its devices use.
// Metrics are compared on one device, where band execution order — and
// therefore the warm-cache state each band sees — is deterministic; with
// several devices, work stealing keys off wall-clock pacing and may
// legitimately hand different bands to different devices between runs,
// so the two-device Predictive fleet compares grids only.
func TestFleetEngineEquivalence(t *testing.T) {
	p, target := fixture(8, 16)

	run := func(engine gpusim.Engine) (*gpusim.Metrics, []float64) {
		dev := gpusim.New(gpusim.KeplerK40())
		dev.SetEngine(engine)
		f := newTwoPhaseFleet(NewFixed([]*gpusim.Device{dev}), 4, 7)
		tg := target.Clone()
		res := f.Step(p, tg, 0)
		return &res.Metrics, append([]float64(nil), tg.Data...)
	}

	sm, sdata := run(gpusim.EngineStreaming)
	om, odata := run(gpusim.EngineOracle)
	for i := range sdata {
		if sdata[i] != odata[i] {
			t.Fatalf("grid datum %d = %v streaming, %v oracle", i, sdata[i], odata[i])
		}
	}
	if *sm != *om {
		t.Fatalf("fleet Metrics diverge\nstreaming: %+v\noracle:    %+v", *sm, *om)
	}

	runPredictive := func(engine gpusim.Engine) [][]float64 {
		devs := []*gpusim.Device{gpusim.New(gpusim.KeplerK40()), gpusim.New(gpusim.KeplerK40())}
		for _, dev := range devs {
			dev.SetEngine(engine)
		}
		f := New(Config{
			Manager: NewFixed(devs),
			MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
				return kernels.NewPredictive(dev)
			},
			Bands: 4,
			Seed:  7,
		})
		var grids [][]float64
		for step := 0; step < 2; step++ {
			tg := target.Clone()
			f.Step(p, tg, 0)
			grids = append(grids, tg.Data)
		}
		return grids
	}
	sg, og := runPredictive(gpusim.EngineStreaming), runPredictive(gpusim.EngineOracle)
	for step := range sg {
		for i := range sg[step] {
			if sg[step][i] != og[step][i] {
				t.Fatalf("predictive step %d: grid datum %d = %v streaming, %v oracle", step, i, sg[step][i], og[step][i])
			}
		}
	}
}
