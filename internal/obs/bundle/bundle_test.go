package bundle_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beamdyn/internal/core"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/analysis"
	"beamdyn/internal/obs/bundle"
	"beamdyn/internal/phys"
)

func testConfig() core.Config {
	return core.Config{
		Beam: phys.Beam{
			NumParticles: 20000,
			TotalCharge:  1e-9,
			SigmaX:       20e-6,
			SigmaY:       50e-6,
			Energy:       4.3e9,
		},
		Lattice: phys.LCLSBend(),
		NX:      24, NY: 24,
		Kappa: 4,
		Tol:   1e-8,
		Seed:  42,
		Rigid: true,
	}
}

// TestChaosRunDumpsPostmortemBundle is the incident layer's end-to-end
// acceptance test: a fleet run with a scripted, unrecovered device failure
// and alerting enabled must dump a post-mortem bundle whose flight trace
// contains the failing step's spans and whose alert log names the fired
// rule — the exact chain beamsim wires with -inject/-alerts/-postmortem-dir.
func TestChaosRunDumpsPostmortemBundle(t *testing.T) {
	sim := core.New(testConfig())

	// Two devices; device 1 fails at failStep and never recovers.
	const failStep = 9
	devs := []*gpusim.Device{gpusim.New(gpusim.KeplerK40()), gpusim.New(gpusim.KeplerK40())}
	events, err := fleet.ParseEvents(fmt.Sprintf("fail:dev=1,step=%d", failStep))
	if err != nil {
		t.Fatal(err)
	}
	fl := fleet.New(fleet.Config{
		Manager: fleet.NewInjectable(devs, events),
		MakeKernel: func(dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewTwoPhase(dev)
		},
		Seed: 1,
	})
	sim.Algo = fl
	sim.DeviceCounts = fl.Counts

	// The always-on flight ring is the only trace sink: no JSONL trace
	// file is configured, as in a production run without -trace.
	o := obs.New()
	rec := &obs.MemorySink{Cap: 512}
	o.Trace = obs.NewTracer(rec)
	sim.Obs = o

	dir := t.TempDir()
	var w *bundle.Writer
	rules, err := alert.ParseRules("device_failed:for=1")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(alert.Config{
		Rules: rules,
		Obs:   o,
		OnAlert: func(a alert.Alert) {
			if a.Severity != alert.Critical.String() {
				return
			}
			trigger := a
			if _, err := w.Dump("alert", a.Step, &trigger); err != nil {
				t.Errorf("bundle dump: %v", err)
			}
		},
	})
	sim.Alerts = eng
	w = bundle.NewWriter(bundle.Config{
		Dir:        dir,
		Obs:        o,
		Flight:     rec,
		Alerts:     eng,
		Checkpoint: sim.Save,
	})

	sim.Warmup()
	if sim.Step > failStep {
		t.Fatalf("warm-up ran past the scripted failure (step %d)", sim.Step)
	}
	for sim.Step <= failStep+1 {
		sim.Advance() // the run survives the failure: dev0 absorbs the bands
	}

	if w.Written() != 1 {
		t.Fatalf("wrote %d bundles, want exactly 1", w.Written())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("bundle parent dir: entries=%v err=%v", entries, err)
	}
	bdir := filepath.Join(dir, entries[0].Name())

	pm, err := analysis.ReadPostmortem(bdir)
	if err != nil {
		t.Fatal(err)
	}
	m := pm.Manifest
	if m.Reason != "alert" || m.Step != failStep {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Trigger == nil || m.Trigger.Rule != "device_failed" {
		t.Fatalf("manifest trigger = %+v", m.Trigger)
	}
	// The manifest's flight counts describe the ring at dump time: every
	// retained event reached flight.jsonl, and retained plus dropped is at
	// most what the ring has seen by now.
	if m.FlightEvents != len(pm.Trace) || m.FlightEvents > 512 {
		t.Fatalf("manifest flight_events = %d, flight.jsonl holds %d (ring cap 512)", m.FlightEvents, len(pm.Trace))
	}
	if seen := uint64(m.FlightEvents) + m.FlightDropped; seen > rec.Total() {
		t.Fatalf("manifest accounts for %d events, ring saw only %d", seen, rec.Total())
	}
	for _, name := range []string{
		bundle.FlightFile, bundle.SnapshotFile, bundle.AlertsFile,
		bundle.CheckpointFile, bundle.HeapFile, bundle.GoroutinesFile,
	} {
		if _, err := os.Stat(filepath.Join(bdir, name)); err != nil {
			t.Errorf("bundle member %s missing: %v", name, err)
		}
		found := false
		for _, f := range m.Files {
			if f == name {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest inventory missing %s (got %v)", name, m.Files)
		}
	}

	// The alert log names the fired rule.
	if len(pm.Alerts.Log) != 1 || pm.Alerts.Log[0].Rule != "device_failed" {
		t.Fatalf("alert log = %+v", pm.Alerts.Log)
	}
	if pm.Alerts.Log[0].Step != failStep || !pm.Alerts.Log[0].Active {
		t.Fatalf("alert log entry = %+v", pm.Alerts.Log[0])
	}

	// The flight trace covers the failing step: the fleet's scheduling
	// span, the simulation's advance span, and the alert event itself.
	want := map[string]bool{"fleet/step": false, "advance": false, "alert": false}
	for _, e := range pm.Trace {
		if e.Step == failStep {
			if _, ok := want[e.Name]; ok {
				want[e.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("flight trace has no %q record at failing step %d", name, failStep)
		}
	}

	// The checkpoint member is a loadable simulation at the dump step.
	cf, err := os.Open(filepath.Join(bdir, bundle.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	restored, err := core.Load(cf)
	if err != nil {
		t.Fatalf("bundle checkpoint does not load: %v", err)
	}
	if restored.Step != failStep+1 {
		t.Fatalf("checkpoint at step %d, want %d", restored.Step, failStep+1)
	}

	// And the triage report names the essentials.
	rep := pm.Report()
	for _, needle := range []string{"reason:  alert", "device_failed", "fleet/step"} {
		if !strings.Contains(rep, needle) {
			t.Errorf("postmortem report missing %q:\n%s", needle, rep)
		}
	}
}

// TestWriterCapAndLiveDump covers the writer's flood guard and the
// checkpoint-free live dump the stall watchdog uses.
func TestWriterCapAndLiveDump(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()
	rec := &obs.MemorySink{Cap: 8}
	o.Trace = obs.NewTracer(rec)
	o.Span("advance", 3).End()

	checkpoints := 0
	w := bundle.NewWriter(bundle.Config{
		Dir: dir, Obs: o, Flight: rec, MaxBundles: 2,
		Checkpoint: func(io.Writer) error { checkpoints++; return nil },
	})

	// DumpLive must not invoke the checkpoint saver: it runs from the
	// watchdog goroutine while a (stuck) step may own the state.
	ldir, err := w.DumpLive("stall", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if checkpoints != 0 {
		t.Fatal("DumpLive invoked the checkpoint saver")
	}
	if _, err := os.Stat(filepath.Join(ldir, bundle.CheckpointFile)); !os.IsNotExist(err) {
		t.Fatalf("live bundle has a checkpoint member (err=%v)", err)
	}
	m, err := bundle.ReadManifest(ldir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reason != "stall" || m.Step != 3 || m.FlightEvents != 2 {
		// 2 = the tracer's t0 header + the advance span.
		t.Fatalf("live manifest = %+v", m)
	}

	// A full Dump checkpoints; a third bundle is refused by the cap.
	if _, err := w.Dump("alert", 4, nil); err != nil {
		t.Fatal(err)
	}
	if checkpoints != 1 {
		t.Fatalf("checkpoint saver ran %d times, want 1", checkpoints)
	}
	if _, err := w.Dump("alert", 5, nil); err == nil {
		t.Fatal("MaxBundles cap not enforced")
	}
	if w.Written() != 2 {
		t.Fatalf("written = %d, want 2", w.Written())
	}
}
