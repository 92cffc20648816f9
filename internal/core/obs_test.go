package core

import (
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
)

func TestAdvanceEmitsStageSpans(t *testing.T) {
	s := New(testConfig())
	s.Algo = kernels.NewPredictive(gpusim.New(gpusim.KeplerK40()))
	o := obs.New()
	var sink obs.MemorySink
	o.Trace = obs.NewTracer(&sink)
	s.Obs = o

	s.Warmup()
	s.Advance()

	names := map[string]int{}
	lastStep := map[string]int{}
	for _, e := range sink.Events() {
		names[e.Name]++
		lastStep[e.Name] = e.Step
	}
	stages := []string{
		"advance", "advance/deposit", "advance/potentials",
		"advance/forces", "advance/push",
	}
	for _, st := range stages {
		if names[st] == 0 {
			t.Fatalf("stage %q emitted no spans (got %v)", st, names)
		}
		if lastStep[st] != s.Step-1 {
			t.Fatalf("stage %q last step %d, want %d", st, lastStep[st], s.Step-1)
		}
	}
	// Deposit and push run every step; potentials and forces only once the
	// retardation history is full.
	if names["advance/deposit"] != names["advance"] || names["advance/push"] != names["advance"] {
		t.Fatalf("per-step stages out of sync with outer span: %v", names)
	}
	if names["advance/potentials"] != names["advance/forces"] {
		t.Fatalf("potentials/forces spans out of sync: %v", names)
	}
	// The observer is forwarded to the kernel: predictive sub-spans and
	// quality samples appear without any explicit SetObserver call.
	if names["predictive/predict"] == 0 {
		t.Fatal("observer not forwarded to the kernel")
	}
	if len(o.Pred.Samples()) == 0 {
		t.Fatal("no predictor samples recorded through Advance")
	}
	if got := o.Reg.Counter("sim_steps_total").Value(); got != uint64(s.Step) {
		t.Fatalf("sim_steps_total = %d, want %d", got, s.Step)
	}
	if got := o.Reg.Gauge("sim_step").Value(); got != float64(s.Step) {
		t.Fatalf("sim_step gauge = %g, want %d", got, s.Step)
	}
}

func TestAdvanceWithoutObserverMatchesObserved(t *testing.T) {
	// Telemetry must not perturb the physics: identical trajectories with
	// and without an observer attached.
	plain := New(testConfig())
	traced := New(testConfig())
	traced.Obs = obs.New()
	plain.Warmup()
	traced.Warmup()
	for i := 0; i < 2; i++ {
		plain.Advance()
		traced.Advance()
	}
	if plain.Step != traced.Step {
		t.Fatalf("step drift: %d vs %d", plain.Step, traced.Step)
	}
	a, b := plain.Potential, traced.Potential
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("observer changed potential at %d", i)
		}
	}
}

func TestAdvanceWithIncidentLayerBitwiseIdentical(t *testing.T) {
	// The full incident layer — flight ring, alert engine over the
	// default rules, device counts, physics-invariant gauges — must leave
	// the simulation output bitwise identical to a bare run.
	plain := New(testConfig())
	armed := New(testConfig())

	o := obs.New()
	rec := &obs.MemorySink{Cap: 128}
	o.Trace = obs.NewTracer(rec)
	armed.Obs = o
	rules, err := alert.ParseRules(alert.DefaultRules)
	if err != nil {
		t.Fatal(err)
	}
	armed.Alerts = alert.NewEngine(alert.Config{Rules: rules, Obs: o})
	armed.DeviceCounts = func() (int, int) { return 0, 0 }

	plain.Warmup()
	armed.Warmup()
	for i := 0; i < 2; i++ {
		plain.Advance()
		armed.Advance()
	}
	if plain.Step != armed.Step {
		t.Fatalf("step drift: %d vs %d", plain.Step, armed.Step)
	}
	a, b := plain.Potential, armed.Potential
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("incident layer changed potential at %d", i)
		}
	}
	// The layer actually ran: rules were evaluated every step, the flight
	// ring retained spans, and the invariant gauges were published.
	if st := armed.Alerts.Status(); st.StepsEvaluated != armed.Step {
		t.Fatalf("engine evaluated %d steps, want %d", st.StepsEvaluated, armed.Step)
	}
	if rec.Total() == 0 {
		t.Fatal("flight ring saw no events")
	}
	for _, g := range []string{"beam_total_charge", "beam_charge_drift", "beam_moment_drift"} {
		found := false
		for _, gv := range o.Reg.Snapshot().Gauges {
			if gv.Name == g {
				found = true
			}
		}
		if !found {
			t.Fatalf("invariant gauge %s not published", g)
		}
	}
}
