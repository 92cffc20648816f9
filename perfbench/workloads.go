package main

import "beamdyn"

// workload is one named benchmark input with its two passes.
type workload struct {
	name, why string
	endToEnd  func(o options, r *report) error
	perLayer  func(o options, r *report) error
}

// kernelConfig is DefaultConfig (1e5 particles, rigid, tau = 1e-8,
// kappa = 6) at an n x n grid.
func kernelConfig(n int) func(o options) beamdyn.Config {
	return func(o options) beamdyn.Config {
		cfg := beamdyn.DefaultConfig()
		cfg.NX, cfg.NY = n, n
		cfg.Seed = o.seed
		cfg.HostWorkers = hostWorkers
		if o.toy {
			cfg.NX, cfg.NY = 16, 16
			cfg.Beam.NumParticles = 2000
		}
		return cfg
	}
}

// particlesConfig is DefaultConfig with 1e6 self-consistently pushed
// particles at 64 x 64.
func particlesConfig(o options) beamdyn.Config {
	cfg := beamdyn.DefaultConfig()
	cfg.Beam.NumParticles = 1000000
	cfg.Rigid = false
	cfg.Seed = o.seed
	cfg.HostWorkers = hostWorkers
	if o.toy {
		cfg.NX, cfg.NY = 16, 16
		cfg.Beam.NumParticles = 20000
	}
	return cfg
}

func stepPasses(name, why string, w stepWorkload) *workload {
	return &workload{name: name, why: why, endToEnd: w.endToEnd, perLayer: w.perLayer}
}

// workloads are the benchmark's inputs; BENCHMARK.json lists the same
// names and reasons.
var workloads = []*workload{
	stepPasses("predictive-128",
		"Predictive-RP (the paper's kernel), DefaultConfig at 128x128 on one simulated K40: the fixed clustered launch is most of a step; host ML and the fallback are the rest.",
		stepWorkload{kernel: beamdyn.PredictiveRP, config: kernelConfig(128)}),
	stepPasses("twophase-96",
		"Two-Phase-RP at 96x96: the adaptive refinement launch is most of a step and there is no host ML, so it shows adaptive/replay changes and is the control for host-ML changes.",
		stepWorkload{kernel: beamdyn.TwoPhaseRP, config: kernelConfig(96)}),
	stepPasses("particles-1m",
		"1e6 self-consistently pushed particles at 64x64 on the host reference solver: deposit, forces, push and the tiled solve do the work; no gpusim runs.",
		stepWorkload{kernel: hostReference, config: particlesConfig}),
	{name: "jobs-catalog",
		why:      "Job server, 2 workers, 1 closed-loop client sending the 3-spec catalog twice per batch: queueing, checkpoints, fleet. jobs.digest_mismatch stays visible until a fleet fix.",
		endToEnd: jobsWorkload{}.endToEnd, perLayer: jobsWorkload{}.perLayer},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
