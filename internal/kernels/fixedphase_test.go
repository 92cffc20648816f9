package kernels

import (
	"testing"

	"beamdyn/internal/gpusim"
)

// TestFixedPhaseAllocsBounded pins the fixed pass's host allocations on a
// warm 24² problem: every point's merged Partition and every fallback
// entry may allocate, plus a per-launch constant (the SM evaluators and
// scratch). The accepted-breakpoint list is per-SM scratch, so walking a
// partition costs no allocation per panel.
func TestFixedPhaseAllocsBounded(t *testing.T) {
	p, target := fixture(8, 24)
	dev := gpusim.New(gpusim.KeplerK40())
	points := buildPoints(p, target, 1)
	var maxR float64
	for _, pt := range points {
		if pt.R > maxR {
			maxR = pt.R
		}
	}
	// One shared partition at a shared base: the Predictive kernel's
	// merged-cluster shape, whose partFor allocates nothing.
	part := uniformCoarsePartition(p, maxR, 2)
	spec := fixedPhaseSpec{
		name:            "alloc-pin",
		blocks:          rowMajorBlocks(len(points), 64),
		threadsPerBlock: 64,
		partFor: func(int, int) ([]float64, uintptr) {
			return part, RegionParts
		},
	}
	var entries []workEntry
	for i := 0; i < 2; i++ {
		_, entries = fixedPhase(dev, p, points, spec)
	}
	avg := testing.AllocsPerRun(5, func() { _, entries = fixedPhase(dev, p, points, spec) })
	const perLaunch = 256
	bound := float64(len(points) + len(entries) + perLaunch)
	if avg > bound {
		t.Fatalf("fixed phase: %.0f allocs for %d points and %d fallback entries, want <= %.0f",
			avg, len(points), len(entries), bound)
	}
	t.Logf("%.0f allocs for %d points, %d fallback entries", avg, len(points), len(entries))
}

// TestAdaptivePhaseAllocsBounded pins the adaptive pass's host allocations
// on a warm 24² problem: every work entry's breakpoints merge into its
// point's Partition (one allocation each), plus a per-launch constant (the
// SM evaluators and scratch). Frame stacks and breakpoint lists are per-SM
// scratch, so refining an entry costs no allocation per panel, and the
// cost-ordered variant sorts the entries without allocating per entry.
func TestAdaptivePhaseAllocsBounded(t *testing.T) {
	p, target := fixture(8, 24)
	dev := gpusim.New(gpusim.KeplerK40())
	points := buildPoints(p, target, 1)
	var maxR float64
	for _, pt := range points {
		if pt.R > maxR {
			maxR = pt.R
		}
	}
	// The fallback entries of a coarse fixed pass: the safety net's
	// production input.
	part := uniformCoarsePartition(p, maxR, 1)
	_, entries := fixedPhase(dev, p, points, fixedPhaseSpec{
		name:            "alloc-pin-fixed",
		blocks:          rowMajorBlocks(len(points), 64),
		threadsPerBlock: 64,
		partFor: func(int, int) ([]float64, uintptr) {
			return part, RegionParts
		},
	})
	if len(entries) == 0 {
		t.Fatal("coarse fixed pass left no fallback entries")
	}
	for _, sortByCost := range []bool{false, true} {
		run := func() { adaptivePhase(dev, p, points, entries, sortByCost, "alloc-pin") }
		run()
		run()
		avg := testing.AllocsPerRun(5, run)
		const perLaunch = 256
		bound := float64(len(entries) + perLaunch)
		if avg > bound {
			t.Fatalf("adaptive phase (sortByCost=%v): %.0f allocs for %d entries, want <= %.0f",
				sortByCost, avg, len(entries), bound)
		}
		t.Logf("sortByCost=%v: %.0f allocs for %d entries", sortByCost, avg, len(entries))
	}
}
