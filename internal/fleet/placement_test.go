package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/phys"
	"beamdyn/internal/retard"
)

// movingFixture advances the continuum bunch of fixture one step at a
// time past a full retardation history and calls fn at each of the next
// steps with that step's problem and a fresh target. The bunch lengthens
// by 5% a step, so the access patterns kernels learn from one step to the
// next keep changing (a rigid bunch would repeat them in its own frame).
func movingFixture(nx, steps int, fn func(p *retard.Problem, target *grid.Grid)) {
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
	const warm = 8 // history grids before the first problem, as in fixture
	h := grid.NewHistory(params.Kappa + 4)
	v := beam.Beta() * phys.C
	for s := 0; s < warm+steps-1; s++ {
		cy := float64(s) * v * params.Dt
		hx, hy := 5*beam.SigmaX, 5*beam.SigmaY
		g := grid.New(nx, nx, grid.MomentComponents, -hx, cy-hy, 2*hx/float64(nx-1), 2*hy/float64(nx-1))
		g.Step = s
		b := beam
		b.SigmaY *= 1 + 0.05*float64(s)
		analytic.ContinuumDeposit(g, b, 0, cy)
		h.Push(g)
		if s < warm-1 {
			continue
		}
		target := grid.New(nx, nx, 1, g.X0, g.Y0, g.DX, g.DY)
		target.Step = s
		fn(retard.NewProblem(h, params), target)
	}
}

// bandStep is what one fleet step must reproduce whatever the placement.
type bandStep struct {
	data     []float64
	points   []kernels.Point
	fallback int
	launches int
	retried  int
}

// runPlacement steps fleet over steps moving-bunch steps and records each
// step's grid and placement-independent counters.
func runPlacement(fl *Fleet, nx, steps int) []bandStep {
	var out []bandStep
	movingFixture(nx, steps, func(p *retard.Problem, target *grid.Grid) {
		res := fl.Step(p, target, 0)
		out = append(out, bandStep{
			data:     append([]float64(nil), target.Data...),
			points:   res.Points,
			fallback: res.FallbackEntries,
			launches: res.Launches,
			retried:  fl.LastStats().Retried,
		})
	})
	return out
}

func compareSteps(t *testing.T, what string, got, want []bandStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", what, len(got), len(want))
	}
	for s := range want {
		g, w := got[s], want[s]
		for i := range w.data {
			if g.data[i] != w.data[i] {
				t.Fatalf("%s step %d: grid datum %d = %v, want %v (1-device fleet)", what, s, i, g.data[i], w.data[i])
			}
		}
		if g.fallback != w.fallback || g.launches != w.launches {
			t.Fatalf("%s step %d: fallback entries %d, launches %d; want %d, %d",
				what, s, g.fallback, g.launches, w.fallback, w.launches)
		}
		if !reflect.DeepEqual(g.points, w.points) {
			t.Fatalf("%s step %d: per-point results differ from the 1-device fleet", what, s)
		}
	}
}

// TestFleetBandStateIndependentOfPlacement pins that a band's kernel, not
// the device it lands on, owns the learned state: whichever devices run
// the bands (and whatever the stealing interleaving), every step's grid,
// points, fallback entries and launches equal those of a one-device fleet
// with the same bands — including under device failure and slowdown.
func TestFleetBandStateIndependentOfPlacement(t *testing.T) {
	const nx, steps = 24, 4
	makers := []struct {
		name string
		mk   func(dev *gpusim.Device) kernels.Algorithm
	}{
		{"predictive", func(dev *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(dev) }},
		{"heuristic", func(dev *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(dev) }},
		{"twophase", func(dev *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(dev) }},
	}
	newFleet := func(mgr Manager, mk func(*gpusim.Device) kernels.Algorithm, bands int) *Fleet {
		return New(Config{Manager: mgr, MakeKernel: mk, Bands: bands, Seed: 3})
	}
	for _, k := range makers {
		for _, devices := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/%d-devices", k.name, devices), func(t *testing.T) {
				want := runPlacement(newFleet(NewFixed(testDevices(1)), k.mk, devices), nx, steps)
				got := runPlacement(newFleet(NewFixed(testDevices(devices)), k.mk, devices), nx, steps)
				compareSteps(t, k.name, got, want)
			})
		}
	}

	t.Run("predictive/chaos", func(t *testing.T) {
		const bands, chaosSteps = 8, 3
		// movingFixture's steps are grid steps 7, 8, 9. Device 0 runs 3x
		// slow throughout, so the bootstrap step's uniform-cost placement
		// queues bands 1, 3, 6 on device 2, which dies during its second
		// band: band 3, at the bunch core. Had that lost attempt trained
		// the band's kernel, the retry would forecast from the model
		// instead of the bootstrap partition and the grids would differ.
		events, err := ParseEvents("slow:dev=0,step=7,factor=3;fail:dev=2,step=7,after=2")
		if err != nil {
			t.Fatal(err)
		}
		mk := makers[0].mk
		want := runPlacement(newFleet(NewFixed(testDevices(1)), mk, bands), nx, chaosSteps)
		got := runPlacement(newFleet(NewInjectable(testDevices(3), events), mk, bands), nx, chaosSteps)
		compareSteps(t, "predictive chaos", got, want)
		if got[0].retried < 1 {
			t.Fatalf("chaos step retried %d bands, want >= 1", got[0].retried)
		}
	})
}
