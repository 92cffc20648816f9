package gpusim

import (
	"fmt"
	"testing"
)

// recordStencil records the 3×3 stencil at corner either as one run or as
// the nine single Loads it stands for (oy outer, ox inner).
func recordStencil(l *Lane, asRun bool, corner, col, row uintptr) {
	if asRun {
		l.LoadStencil3x3(corner, col, row)
		return
	}
	for oy := uintptr(0); oy < 3; oy++ {
		for ox := uintptr(0); ox < 3; ox++ {
			l.Load(corner + ox*col + oy*row)
		}
	}
}

// traceFormKernels record stencil-shaped address streams; each returns
// the kernel for one trace form (runs or singles) of the same stream.
var traceFormKernels = []struct {
	name string
	k    func(asRun bool) Kernel
}{
	{"aligned", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(5)
			for s := 0; s < 3; s++ {
				recordStencil(l, asRun, uintptr(b*8192+th*8+s*4096), 8, 64*8)
			}
		}
	}},
	{"leading-single-some-lanes", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(1)
			if th%3 == 0 {
				l.Load(uintptr(0x10000 + th*8))
			}
			for s := 0; s < 2; s++ {
				recordStencil(l, asRun, uintptr(b*8192+th*16+s*512), 8, 48*8)
			}
			l.Load(uintptr(0x20000 + b*8))
		}
	}},
	{"lanes-run-out-early", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			for u := 0; u < 2; u++ {
				l.Begin(u)
				l.Flops(3)
				for s := 0; s <= (th+u)%4; s++ {
					recordStencil(l, asRun, uintptr(b*4096+th*8+s*1024), 8, 32*8)
				}
				l.Store(uintptr(b*1024 + th*8))
			}
		}
	}},
	{"mixed-and-zero-strides", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			// Resident grid of width 40 or 56 depending on the lane, and
			// a non-resident grid whose nine loads all hit address 0.
			row := uintptr(40 * 8)
			if th%2 == 1 {
				row = 56 * 8
			}
			recordStencil(l, asRun, uintptr(b*2048+th*8), 8, row)
			recordStencil(l, asRun, 0, 0, 0)
			if th%5 == 0 {
				recordStencil(l, asRun, 0, 0, 0)
			}
			recordStencil(l, asRun, uintptr(0x8000+th*8), 8, 40*8)
		}
	}},
	{"unsorted-corners", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(2)
			// Descending corners force the sort fallback on every
			// instruction; the hashed ones invert part-way through.
			recordStencil(l, asRun, uintptr((64-th)*4096), 8, 64*8)
			recordStencil(l, asRun, uintptr(((th*37)%11)*2048+b*8), 8, 64*8)
			recordStencil(l, asRun, uintptr(0x40000+th*8), 8, 64*8)
		}
	}},
	{"descents-inside-a-line", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			// Neighbouring lanes descend inside one line (in-line offsets
			// 120 then 112): instruction 0 arrives sorted, but the +8
			// column moves only the first lane into the next line and
			// arrives unsorted.
			recordStencil(l, asRun, uintptr(b*8192+(th/2)*256+120-8*(th%2)), 8, 64*8)
			// Sixteen lanes per line at in-line offsets 127 down to 112:
			// the +8 column straddles a line boundary and arrives
			// unsorted, the +16 column lands wholly in the next line.
			recordStencil(l, asRun, uintptr(0x10000+b*8192+(th/16)*512+127-th%16), 8, 64*8)
		}
	}},
	{"divergent-kinds", func(asRun bool) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(th % 2)
			l.Flops(7)
			recordStencil(l, asRun, uintptr(b*4096+th*8), 8, 24*8)
			l.Begin(3)
			l.Load(uintptr(th * 8))
			recordStencil(l, asRun, uintptr(0x9000+th*24), 8, 24*8)
		}
	}},
}

// TestTraceFormAB proves the stencil-run trace is only a compact form of
// the single-load trace: recording the same address stream either way
// gives ==-equal ReplayStats on each engine and ==-equal Metrics on both —
// misaligned cursors, lanes that run out early, mixed and zero strides,
// corners that force the sort fallback on some instructions of a batch
// and not others, 64- and 128-byte lines, and a non-power-of-two L1 line
// (which takes the per-lane cursor path instead of the stencil batch).
func TestTraceFormAB(t *testing.T) {
	nonPow2 := abConfig(32, 2, 2)
	nonPow2.Name = "ab-48B-lines"
	nonPow2.L1Bytes, nonPow2.L1LineBytes = 48*16, 48
	wide := abConfig(32, 2, 2)
	wide.Name = "ab-128B-lines"
	wide.L1Bytes, wide.L1LineBytes = 128*16, 128
	for _, cfg := range []Config{abConfig(32, 1, 2), abConfig(8, 2, 3), wide, nonPow2} {
		for _, tk := range traceFormKernels {
			t.Run(fmt.Sprintf("%s/ws%d/%s", cfg.Name, cfg.WarpSize, tk.name), func(t *testing.T) {
				// devs[engine][form], form 0 = runs, 1 = singles.
				var devs [2][2]*Device
				for e, engine := range []Engine{EngineStreaming, EngineOracle} {
					for f := range devs[e] {
						devs[e][f] = New(cfg)
						devs[e][f].SetEngine(engine)
					}
				}
				for rep := 0; rep < 2; rep++ { // the second launch replays on warm caches
					ref := devs[0][0].Run(Launch{Name: tk.name, Blocks: 3, ThreadsPerBlock: 2*cfg.WarpSize + 5, Kernel: tk.k(true)})
					for e := range devs {
						for f, asRun := range []bool{true, false} {
							if e == 0 && f == 0 {
								continue
							}
							m := devs[e][f].Run(Launch{Name: tk.name, Blocks: 3, ThreadsPerBlock: 2*cfg.WarpSize + 5, Kernel: tk.k(asRun)})
							if m != ref {
								t.Fatalf("launch %d engine %d runs=%v: metrics diverge\ngot:       %+v\nstreaming: %+v", rep, e, asRun, m, ref)
							}
						}
						if rr, rs := devs[e][0].ReplayStats(), devs[e][1].ReplayStats(); rr != rs {
							t.Fatalf("launch %d engine %d: replay stats diverge\nruns:    %+v\nsingles: %+v", rep, e, rr, rs)
						}
					}
				}
				if s := devs[0][0].ReplayStats(); (tk.name == "unsorted-corners" || tk.name == "descents-inside-a-line") && s.SortFallbacks == 0 {
					t.Fatalf("%s never took the sort fallback", tk.name)
				}
			})
		}
	}
}
