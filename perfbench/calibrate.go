package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark runs on is shared with other guests, and its
// speed drifts: over minutes the same step takes a quarter more or less
// wall time, and process CPU time drifts with it (a busy hyperthread
// sibling or a slower clock stretches both). A fixed calibration kernel,
// timed after every set-up and measured step (or job batch), samples the
// host's current speed; the gated times are scaled by calRefMs over the
// median of the run's kernel times, which cancels the drift the workload
// shares with the kernel.

// calRefMs is the calibration kernel's nominal wall time: a scaled time
// reads as the raw time on a host that runs the kernel in calRefMs. It is
// a fixed constant, so scaled times compare across runs and commits.
const calRefMs = 6.0

// calStream is the kernel's streaming operand: larger than the per-core
// caches, so the kernel also samples memory bandwidth.
var calStream = func() []float64 {
	s := make([]float64, 1<<20)
	for i := range s {
		s[i] = float64(i%97) * 1e-3
	}
	return s
}()

// calKernel does a fixed amount of floating-point work, table lookups and
// streaming reads, the mix the simulation's layers do. lane offsets the
// table walk so concurrent lanes do not share lines.
func calKernel(lane int) float64 {
	var table [1 << 15]uint32 // 128 KiB, cache-resident
	for i := range table {
		table[i] = uint32(i*2654435761) >> 17
	}
	idx := uint32(lane * 7919)
	x, acc := 1.0+float64(lane), 0.0
	for i := 0; i < 150000; i++ {
		idx = table[(idx+uint32(i))&(1<<15-1)]
		x = x*0.999999 + float64(idx)*1e-9
		acc += math.Sqrt(x)
	}
	for rep := 0; rep < 2; rep++ {
		for i, v := range calStream {
			acc += v * float64(i&7)
		}
	}
	return acc
}

// calSink keeps calKernel's result observable so it is not optimized away.
var calSink float64

// calReps is how many times calibrate runs the kernel. It reports the
// fastest: a single run straight after a step often shares the CPUs with
// the garbage collector's background marking of that step's garbage, and
// the fastest of three is far steadier than one.
const calReps = 3

// calibrate runs the kernel on every host worker at once, as the
// simulation's parallel phases run, calReps times, and returns the
// fastest wall time in ms.
func calibrate() float64 {
	best := math.Inf(1)
	out := make([]float64, hostWorkers)
	for rep := 0; rep < calReps; rep++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := range out {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out[w] = calKernel(w)
			}(w)
		}
		wg.Wait()
		best = math.Min(best, time.Since(t0).Seconds()*1e3)
		calSink += sum(out)
	}
	return best
}

// scaled converts a raw time measured while the calibration kernel took
// calMs into its time at the reference speed.
func scaled(raw, calMs float64) float64 { return raw * calRefMs / calMs }
