package analysis

import (
	"strings"
	"testing"

	"beamdyn/internal/obs"
)

// TestRPCacheAggregation: the rp cache section sums the instrumentation
// attrs core attaches to reference/solve spans, skips uninstrumented
// spans, and reports sane hit rates.
func TestRPCacheAggregation(t *testing.T) {
	events := []obs.Event{
		{Name: "advance", Kind: "span", Step: 0},
		{Name: "reference/solve", Kind: "span", Step: 0}, // legacy: no attrs
		{Name: "reference/solve", Kind: "span", Step: 1, Attrs: map[string]any{
			"rp_tile_hits": 30.0, "rp_tile_solves": 32.0,
			"rp_memo_reuse": 800.0, "rp_memo_probe": 1000.0,
			"rp_tile_w": 32.0, "rp_tile_h": 16.0,
		}},
		{Name: "reference/solve", Kind: "span", Step: 2, Attrs: map[string]any{
			"rp_tile_hits": 31.0, "rp_tile_solves": 32.0,
			"rp_memo_reuse": 900.0, "rp_memo_probe": 1000.0,
			"rp_tile_w": 32.0, "rp_tile_h": 16.0,
		}},
	}
	c := RPCache(events)
	if c.Solves != 2 {
		t.Fatalf("Solves = %d, want 2 (legacy span must not count)", c.Solves)
	}
	if c.TileHits != 61 || c.TileSolves != 64 || c.MemoHits != 1700 || c.MemoProbes != 2000 {
		t.Fatalf("totals = %+v", c)
	}
	if c.TileW != 32 || c.TileH != 16 {
		t.Fatalf("tile shape = %dx%d, want 32x16", c.TileW, c.TileH)
	}
	if r := c.MemoHitRate(); r != 0.85 {
		t.Fatalf("memo hit rate = %g, want 0.85", r)
	}
	table := RPCacheTable(c)
	for _, want := range []string{"tile 32x16", "tile scratch hits", "radial memo hits", "85.0% reuse"} {
		if !strings.Contains(table, want) {
			t.Fatalf("cache table missing %q:\n%s", want, table)
		}
	}
}

// TestRPCacheTableEmpty: a trace with no instrumented solves renders
// nothing, so obstool can print the section unconditionally.
func TestRPCacheTableEmpty(t *testing.T) {
	if s := RPCacheTable(RPCache([]obs.Event{{Name: "advance"}})); s != "" {
		t.Fatalf("empty cache table = %q, want \"\"", s)
	}
	var zero RPCacheStats
	if zero.TileHitRate() != 0 || zero.MemoHitRate() != 0 {
		t.Fatal("zero-stats hit rates must be 0, not NaN")
	}
}
