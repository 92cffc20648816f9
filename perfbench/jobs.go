package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"path"
	"runtime"
	"sync"
	"time"

	"beamdyn/internal/core"
	"beamdyn/internal/jobs"
	"beamdyn/internal/obs"
)

// scenarios is a pinned copy of the examples/scenarios job catalog, so the
// workload stays the same when the catalog changes.
//
//go:embed scenarios/*.json
var scenarios embed.FS

// copiesPerBatch is how many times each catalog spec is submitted per
// batch.
const copiesPerBatch = 2

// saveReps is how many times each spec's simulation is checkpointed to time
// Simulation.Save.
const saveReps = 5

// jobsWorkload is the in-process job service driven by one closed-loop
// client: submit the catalog twice as one batch, wait for all of it, repeat.
type jobsWorkload struct{}

// specs loads the catalog and derives each spec's seed from the run seed.
func (jobsWorkload) specs(o options) ([]jobs.Spec, error) {
	files, err := scenarios.ReadDir("scenarios")
	if err != nil {
		return nil, err
	}
	var out []jobs.Spec
	for i, f := range files {
		data, err := scenarios.ReadFile(path.Join("scenarios", f.Name()))
		if err != nil {
			return nil, err
		}
		sp, err := jobs.ParseSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		sp.Seed = o.seed*uint64(len(files)) + uint64(i) + 1
		if o.toy {
			sp.Steps = 1
			sp.Grid.NX, sp.Grid.NY = 16, 16
			sp.Beam.Particles /= 10
		}
		out = append(out, sp)
	}
	return out, nil
}

func (w jobsWorkload) params(specs []jobs.Spec, r *report) {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.String())
	}
	r.Params = map[string]any{
		"specs": names, "copies_per_batch": copiesPerBatch, "workers": hostWorkers,
		"checkpoint_every": 1, "clients": 1, "setups": setups,
	}
}

func newServer(tr *obs.Observer) *jobs.Server {
	return jobs.New(jobs.Config{Workers: hostWorkers, CheckpointEvery: 1, Obs: tr})
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	id, spec   string
	latencyMs  float64 // Server.Submit until Job.Done
	status     jobs.Status
	sha        string
	stepGapsMs []float64 // between consecutive progress events
	failed     []string
}

// batch submits every spec copiesPerBatch times and waits for all the jobs.
// With a tracer, each job also gets the benchmark's own bench/job span from
// Submit to Done.
func batch(s *jobs.Server, specs []jobs.Spec, tr *obs.Observer) ([]jobOutcome, error) {
	out := make([]jobOutcome, 0, copiesPerBatch*len(specs))
	var wg sync.WaitGroup
	for c := 0; c < copiesPerBatch; c++ {
		for _, sp := range specs {
			out = append(out, jobOutcome{spec: sp.Name})
		}
	}
	k := 0
	for c := 0; c < copiesPerBatch; c++ {
		for _, sp := range specs {
			bsp := tr.Span("bench/job", 0)
			t0 := time.Now()
			j, err := s.Submit(sp)
			if err != nil {
				wg.Wait()
				return nil, fmt.Errorf("submit %s: %w", sp.Name, err)
			}
			wg.Add(1)
			go func(o *jobOutcome, j *jobs.Job) {
				defer wg.Done()
				<-j.Done()
				o.latencyMs = time.Since(t0).Seconds() * 1e3
				bsp.End(obs.S("job", j.ID))
				o.id = j.ID
			}(&out[k], j)
			k++
		}
	}
	wg.Wait()
	for i := range out {
		o := &out[i]
		j := s.Get(o.id)
		o.status = j.Status()
		if o.status.State != jobs.StateDone {
			o.failed = append(o.failed, "job_state")
			continue
		}
		res := j.Result()
		o.sha = res.SHA256
		for _, v := range res.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.failed = append(o.failed, "finite")
				break
			}
		}
		var last time.Time
		for _, ev := range j.Events() {
			if ev.Type != "progress" {
				continue
			}
			if !last.IsZero() {
				o.stepGapsMs = append(o.stepGapsMs, ev.TS.Sub(last).Seconds()*1e3)
			}
			last = ev.TS
		}
	}
	return out, nil
}

// totals sums what the client saw over a set of jobs.
type totals struct {
	latencyMs, queueMs, runMs, stepGapsMs []float64
	steps                                 int
}

func summarize(outs []jobOutcome) totals {
	var t totals
	for _, o := range outs {
		t.latencyMs = append(t.latencyMs, o.latencyMs)
		t.queueMs = append(t.queueMs, o.status.QueueWaitSec*1e3)
		t.runMs = append(t.runMs, o.status.RunSec*1e3)
		t.stepGapsMs = append(t.stepGapsMs, o.stepGapsMs...)
		t.steps += o.status.Step
	}
	return t
}

// endToEnd is the untraced pass: start the server and run one warm-up
// batch `setups` times (setup_s), then run batches until --seconds have
// passed. Gated times are scaled by the calibration kernel, timed after
// every set-up and batch.
func (w jobsWorkload) endToEnd(o options, r *report) error {
	var srv *jobs.Server
	var specs []jobs.Spec
	setup := make([]float64, setups)
	var cals []float64
	for i := range setup {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if specs, err = w.specs(o); err != nil {
			return err
		}
		srv = newServer(nil)
		if _, err := batch(srv, specs, nil); err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
		cals = append(cals, calibrate())
	}
	defer srv.Close()
	w.params(specs, r)
	runtime.GC()
	var outs []jobOutcome
	var elapsed float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(outs) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		b, err := batch(srv, specs, nil)
		if err != nil {
			return err
		}
		elapsed += time.Since(t0).Seconds()
		outs = append(outs, b...)
		cals = append(cals, calibrate())
	}
	cal := median(cals)
	for _, out := range outs {
		r.op(out.failed...)
	}
	t := summarize(outs)
	r.set("setup_s", scaled(median(setup), cal), setups)
	r.set("step_ms_p50", scaled(median(t.stepGapsMs), cal), len(t.stepGapsMs))
	r.set("steps_per_s", float64(t.steps)/scaled(elapsed, cal), t.steps)
	r.set("setup_wall_s", median(setup), setups)
	r.set("step_wall_ms_p50", median(t.stepGapsMs), len(t.stepGapsMs))
	r.set("cal_ms_p50", cal, len(cals))
	r.set("job_ms_p50", median(t.latencyMs), len(t.latencyMs))
	r.set("jobs_per_s", float64(len(outs))/elapsed, len(outs))
	r.set("max_rss_mb", maxRSSMB(), 1)
	return nil
}

// perLayer alternates batches between an untraced server A and a traced
// server B until --seconds have passed. B's spans give the layer times, A
// the allocator counts and the untraced latency the tracing overhead is
// measured against.
func (w jobsWorkload) perLayer(o options, r *report) error {
	specs, err := w.specs(o)
	if err != nil {
		return err
	}
	w.params(specs, r)
	sink := &obs.MemorySink{Cap: 1 << 22}
	tr := &obs.Observer{Trace: obs.NewTracer(sink)}
	a, b := newServer(nil), newServer(tr)
	defer a.Close()
	defer b.Close()
	for _, s := range []*jobs.Server{a, b} {
		if _, err := batch(s, specs, nil); err != nil { // warm-up
			return err
		}
	}
	kb, err := timeSaves(specs, tr)
	if err != nil {
		return err
	}

	var outsA, outsB []jobOutcome
	var allocs, allocBytes, gcs float64
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	batchA := func() error {
		runtime.ReadMemStats(&m0)
		out, err := batch(a, specs, nil)
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs - m0.Mallocs)
		allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		gcs += float64(m1.NumGC - m0.NumGC)
		outsA = append(outsA, out...)
		return err
	}
	batchB := func() error {
		out, err := batch(b, specs, tr)
		outsB = append(outsB, out...)
		return err
	}
	// The servers alternate which goes first, as the step workloads do.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		first, second := batchA, batchB
		if i%2 == 1 {
			first, second = batchB, batchA
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}

	// A spec whose copies disagree within either pass is the known
	// determinism defect (jobs.digest_mismatch): its result depends on
	// scheduling, and tracing changes the timing. A spec stable within each
	// pass whose traced digest differs from its untraced one means tracing
	// changed the physics.
	shas := map[string]map[string]bool{}
	untraced := map[string]map[string]bool{}
	traced := map[string]map[string]bool{}
	for _, out := range outsA {
		addSHA(untraced, out)
		addSHA(shas, out)
	}
	for _, out := range outsB {
		addSHA(traced, out)
		addSHA(shas, out)
	}
	mismatch := 0
	for _, set := range shas {
		if len(set) > 1 {
			mismatch++
		}
	}
	for i, out := range outsB {
		if len(untraced[out.spec]) == 1 && len(traced[out.spec]) == 1 && len(shas[out.spec]) > 1 {
			outsB[i].failed = append(outsB[i].failed, "trace_identity")
		}
	}

	roots, err := spanTree(sink)
	if err != nil {
		return err
	}
	measured := map[string]int{}
	for i, out := range outsB {
		measured[out.id] = i
	}
	var advances, bands, saves []*span
	for _, root := range roots {
		switch root.name {
		case "bench/save":
			saves = append(saves, root)
		case "jobs/job":
			i, ok := measured[fmt.Sprint(root.attrs["job"])]
			if !ok {
				continue
			}
			adv := find([]*span{root}, "advance")
			for _, bad := range breakdown(adv).sumBad {
				if bad {
					outsB[i].failed = append(outsB[i].failed, "layer_sum")
					break
				}
			}
			advances = append(advances, adv...)
			bands = append(bands, find([]*span{root}, "fleet/band")...)
		}
	}
	for _, out := range append(outsA, outsB...) {
		r.op(out.failed...)
	}

	lt := breakdown(advances)
	setLayers(r, lt)
	r.set("gpusim.host_ns_per_warp_inst", 0, 0)
	setWindow(r, &stepWindow{})
	ta, tb := summarize(outsA), summarize(outsB)
	r.set("jobs.queue_wait_ms_p50", median(tb.queueMs), len(tb.queueMs))
	r.set("jobs.run_ms_p50", median(tb.runMs), len(tb.runMs))
	r.set("jobs.digest_mismatch", float64(mismatch), len(shas))
	r.set("core.checkpoint_save_ms", median(durationsMs(saves)), len(saves))
	r.set("core.checkpoint_kb", kb, len(specs))
	r.set("fleet.band_ms_p50", zeroIfNaN(median(durationsMs(bands))), len(bands))
	steps := float64(ta.steps)
	r.set("runtime.allocs_per_step", ratio(allocs, steps), ta.steps)
	r.set("runtime.alloc_mb_per_step", ratio(allocBytes/1e6, steps), ta.steps)
	r.set("runtime.gc_per_step", ratio(gcs, steps), ta.steps)
	r.set("obs.trace_overhead_frac", median(tb.latencyMs)/median(ta.latencyMs)-1, len(tb.latencyMs))
	r.set("job_ms_p50", median(ta.latencyMs), len(ta.latencyMs))
	return nil
}

func addSHA(m map[string]map[string]bool, out jobOutcome) {
	if out.sha == "" {
		return
	}
	if m[out.spec] == nil {
		m[out.spec] = map[string]bool{}
	}
	m[out.spec][out.sha] = true
}

// timeSaves checkpoints each spec's warmed-up simulation saveReps times
// inside the benchmark's own bench/save spans and returns the mean
// checkpoint size in KiB.
func timeSaves(specs []jobs.Spec, tr *obs.Observer) (float64, error) {
	var kb []float64
	var buf bytes.Buffer
	for _, sp := range specs {
		sim := core.New(sp.CoreConfig())
		sim.Warmup()
		for i := 0; i < saveReps; i++ {
			buf.Reset()
			s := tr.Span("bench/save", sim.Step)
			err := sim.Save(&buf)
			s.End()
			if err != nil {
				return 0, fmt.Errorf("checkpoint %s: %w", sp.Name, err)
			}
		}
		kb = append(kb, float64(buf.Len())/1024)
	}
	return mean(kb), nil
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
