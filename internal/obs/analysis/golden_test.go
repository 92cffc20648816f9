package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"beamdyn/internal/obs"
)

// goldenTrace is a committed real trace: a 16x16 predictive beamsim
// -trace run followed by a 32x32 reference run (32x32 so the host solver
// spans two cache tiles and the tile-scratch reuse line is non-trivial),
// both -n 2000 -steps 1 -seed 7, the reference run with -host-workers 1.
const goldenTrace = "testdata/trace.jsonl"

// checkGolden compares got byte for byte with testdata/<name>; on a
// mismatch it prints both, so an intended change can be copied over.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenTables pins what obstool prints for a real trace: the summary
// table, the rp solver cache section, and the diff table of the trace
// against itself with every advance/deposit span twice as long.
func TestGoldenTables(t *testing.T) {
	events, err := ReadTraceFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	stats := Aggregate(events)
	for _, s := range stats {
		p50, p95, p99 := s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)
		if !(s.MinSec <= p50 && p50 <= p95 && p95 <= p99 && p99 <= s.MaxSec) {
			t.Errorf("%s: min %g p50 %g p95 %g p99 %g max %g out of order",
				s.Name, s.MinSec, p50, p95, p99, s.MaxSec)
		}
	}
	checkGolden(t, "summary.golden", SummaryTable(stats))
	checkGolden(t, "rpcache.golden", RPCacheTable(RPCache(events)))

	slowed := append([]obs.Event(nil), events...)
	for i := range slowed {
		if slowed[i].Name == "advance/deposit" {
			slowed[i].Dur *= 2
		}
	}
	checkGolden(t, "diff.golden", DiffTable(Diff(events, slowed)))
}
