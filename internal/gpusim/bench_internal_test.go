package gpusim

import "testing"

func benchLaunch(grid int) Launch {
	return Launch{
		Name: "bench", Blocks: grid * grid / 256, ThreadsPerBlock: 256,
		Kernel: func(l *Lane, b, th int) {
			base := uintptr(b*grid*64 + th*8)
			for u := 0; u < 4; u++ {
				l.Begin(0)
				l.Flops(12)
				l.Load(base + uintptr(u*grid*8))
				l.Load(base + uintptr((u+1)*grid*8))
				l.Store(base + uintptr(u*grid*8))
			}
		},
	}
}

func BenchmarkRunStreaming(b *testing.B) {
	d := New(KeplerK40())
	l := benchLaunch(128)
	d.Run(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(l)
	}
}

func BenchmarkRunOracle(b *testing.B) {
	d := New(KeplerK40())
	d.SetEngine(EngineOracle)
	l := benchLaunch(128)
	d.Run(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(l)
	}
}

// stencilLaunch records the integrand's address stream: every lane reads
// three 3×3 stencils per sample from a grid-wide plane, either as stencil
// runs or as the nine single loads each stands for.
//
// With twoRows unset, lane th of block b samples at column th of row b, so
// every warp's corners arrive presorted. With twoRows set, each block
// covers a 16×16 tile and each warp two of its rows, as Predictive
// clusters and Two-Phase row blocks do, and each lane's sample lands up
// to a column off its point, as per-point theta windows make it: the
// corners fall into several lines per row and descend inside them.
func stencilLaunch(grid int, asRun, twoRows bool) Launch {
	row := uintptr(grid * 8)
	return Launch{
		Name: "stencil", Blocks: grid * grid / 256, ThreadsPerBlock: 256,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			at := b*grid + th
			if twoRows {
				tiles := grid / 16
				x := (b%tiles)*16 + th%16 + 2*(th%2) // a column either side of x+1
				y := (b/tiles)*16 + th/16
				at = y*grid + x
			}
			for s := 0; s < 4; s++ {
				for p := 0; p < 3; p++ {
					corner := uintptr(p*grid*grid*8+at*8) + uintptr(s)*row
					if asRun {
						l.LoadStencil3x3(corner, 8, row)
						continue
					}
					for oy := uintptr(0); oy < 3; oy++ {
						for ox := uintptr(0); ox < 3; ox++ {
							l.Load(corner + ox*8 + oy*row)
						}
					}
				}
				l.Flops(104)
			}
		},
	}
}

// BenchmarkRunStencil replays the same stencil address stream recorded as
// runs (the evaluator's form) and as singles (the closure's form), for
// presorted warps and for warps spanning two grid rows.
func BenchmarkRunStencil(b *testing.B) {
	for _, form := range []struct {
		name           string
		asRun, twoRows bool
	}{
		{"runs", true, false}, {"singles", false, false},
		{"two-rows/runs", true, true}, {"two-rows/singles", false, true},
	} {
		b.Run(form.name, func(b *testing.B) {
			d := New(KeplerK40())
			l := stencilLaunch(128, form.asRun, form.twoRows)
			d.Run(l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Run(l)
			}
		})
	}
}

func scatterLaunch(grid int) Launch {
	return Launch{
		Name: "scatter", Blocks: grid * grid / 256, ThreadsPerBlock: 256,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(6)
			for u := 0; u < 3; u++ {
				idx := (th*2654435761 + u*40503 + b*97) % (grid * grid)
				l.Load(uintptr(idx * 8))
			}
			l.Store(uintptr(b*grid*8 + th*8))
		},
	}
}

func BenchmarkScatterStreaming(b *testing.B) {
	d := New(KeplerK40())
	l := scatterLaunch(128)
	d.Run(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(l)
	}
}
