// Multi-GPU strong scaling: run the Predictive-RP kernel across a fleet of
// 1, 2 and 4 simulated K40s on a fixed problem. The rp-integral is
// embarrassingly parallel over grid points, so the speedup tracks the
// device count until per-device occupancy runs out.
package main

import (
	"fmt"

	"beamdyn"
)

func main() {
	cfg := beamdyn.DefaultConfig()
	cfg.Beam.NumParticles = 50000
	cfg.NX, cfg.NY = 64, 64

	fmt.Printf("%8s %14s %8s\n", "devices", "gpu time (s)", "speedup")
	var base float64
	for _, devices := range []int{1, 2, 4} {
		sim := beamdyn.New(cfg)
		sim.Algo = beamdyn.NewFleet(beamdyn.PredictiveRP, devices, 1)
		sim.Warmup()
		sim.Advance() // warm cross-step state
		sim.Advance()
		t := sim.Last.Metrics.Time
		if base == 0 {
			base = t
		}
		fmt.Printf("%8d %14.4g %8.2f\n", devices, t, base/t)
	}
}
