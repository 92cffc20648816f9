package core

import (
	"testing"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
)

// benchAdvance measures the full simulation step with the incident layer
// off (the bare production path) and on (flight ring + default alert
// rules + device counts + physics-invariant gauges). Comparing the two
// Benchmark lines bounds the alerting overhead; the acceptance budget is
// < 5% over the bare step (make bench-obs).
func benchAdvance(b *testing.B, incident bool) {
	cfg := testConfig()
	cfg.Beam.NumParticles = 5000
	s := New(cfg)
	if incident {
		o := obs.New()
		o.Trace = obs.NewTracer(&obs.MemorySink{Cap: 4096})
		s.Obs = o
		rules, err := alert.ParseRules(alert.DefaultRules)
		if err != nil {
			b.Fatal(err)
		}
		s.Alerts = alert.NewEngine(alert.Config{Rules: rules, Obs: o})
		s.DeviceCounts = func() (failed, degraded int) { return 0, 0 }
	}
	s.Warmup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

func BenchmarkObsAdvanceBare(b *testing.B)     { benchAdvance(b, false) }
func BenchmarkObsAdvanceIncident(b *testing.B) { benchAdvance(b, true) }

// BenchmarkObsAdvanceTraceIDs is the span-context overhead bound: the full
// step with tracing live AND per-span trace/span/parent IDs plus baggage
// stamping (the scoped-observer path every control-plane job runs on).
// Compare against BenchmarkObsAdvanceBare under the same < 5% budget.
func BenchmarkObsAdvanceTraceIDs(b *testing.B) {
	cfg := testConfig()
	cfg.Beam.NumParticles = 5000
	s := New(cfg)
	o := obs.New()
	o.Trace = obs.NewTracer(&obs.MemorySink{Cap: 4096})
	s.Obs = o.StartTrace(obs.S("job", "bench"), obs.S("tenant", "default"), obs.S("node", "bench-node"))
	s.Warmup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}
