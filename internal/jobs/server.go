package jobs

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"beamdyn/internal/core"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
)

// Config configures a control-plane Server.
type Config struct {
	// Workers is the dispatch pool size (default 2): how many jobs run
	// concurrently, each on its own per-job device fleet.
	Workers int
	// Obs receives the jobs_* metrics and the per-job trace spans/events
	// (jobs/queue-wait, jobs/run, jobs/state, ...); nil disables
	// instrumentation.
	Obs *obs.Observer
	// MaxQueuedPerTenant bounds each tenant's queued jobs (0 = unlimited);
	// admission beyond it fails with ErrQuota.
	MaxQueuedPerTenant int
	// CheckpointEvery takes a step-boundary checkpoint every N completed
	// steps (default 1; <0 disables periodic checkpoints — a device
	// failure still checkpoints immediately).
	CheckpointEvery int
	// MaxResumes bounds checkpoint/resume episodes per job (default 3);
	// past it a failing job goes FAILED.
	MaxResumes int
	// ProgressEvery emits a progress event every N completed steps
	// (default 1).
	ProgressEvery int
	// NewDevice overrides simulated-device construction (tests swap in
	// instrumented devices); nil builds a Kepler K40 labelled
	// "<job>-a<attempt>-dev<id>".
	NewDevice func(j *Job, attempt, id int) *gpusim.Device
	// Node labels this control plane's traces: when set, every per-job
	// trace event carries a node=<Node> baggage attr, so JSONL streams
	// merged across processes stay attributable.
	Node string

	// now stubs the clock for queue/deadline tests; nil means time.Now.
	now func() time.Time
}

// Server is the job control plane: admission, queueing, dispatch onto a
// worker pool, checkpoint/resume, and observation. Create with New, stop
// with Close.
type Server struct {
	cfg Config
	q   *queue
	obs *obs.Observer
	now func() time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	idSeq  int
	closed bool

	wg sync.WaitGroup
}

// New starts a control plane with cfg.Workers dispatch workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxResumes == 0 {
		cfg.MaxResumes = 3
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 1
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:  cfg,
		obs:  cfg.Obs,
		now:  now,
		jobs: make(map[string]*Job),
	}
	s.q = newQueue(cfg.MaxQueuedPerTenant, now, s.expireJob)
	for st := range AllStates {
		// Pre-create the per-state gauges so scrapes see zeros, not gaps.
		s.gauge("jobs_state", obs.Label{Key: "state", Value: string(AllStates[st])})
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func(id int) {
			defer s.wg.Done()
			s.worker(id)
		}(w)
	}
	return s
}

// Close stops admission, cancels still-queued jobs and waits for running
// jobs to finish their current run (they are not interrupted mid-step).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, j := range s.q.drain() {
		s.endWait(j)
		j.transition(s.now(), StateCancelled, -1, "control plane shutdown")
		s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "cancelled"}).Inc()
		s.endJob(j)
	}
	s.updateGauges()
	s.wg.Wait()
}

// Submit admits a job built from sp (which must already be normalized and
// validated — ParseSpec does both). On success the job is QUEUED.
func (s *Server) Submit(sp Spec) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.idSeq++
	id := fmt.Sprintf("j-%06d", s.idSeq)
	j := newJob(id, sp, s.now())
	s.mu.Unlock()

	s.counter("jobs_submitted_total", obs.Label{Key: "tenant", Value: sp.Tenant}).Inc()
	// Become QUEUED (wait span running) before the job is poppable, so a
	// fast worker can never observe it pre-QUEUED. A rejected job is simply
	// discarded — it was never registered.
	//
	// The job gets its own trace: a scoped observer carrying job/tenant
	// (and node) baggage, a "jobs/job" root span open until the terminal
	// transition, and every descendant span — queue-wait, run, the
	// simulation stages — parenting under it.
	j.mu.Lock()
	baggage := []obs.Attr{obs.S("job", id), obs.S("tenant", sp.Tenant)}
	if s.cfg.Node != "" {
		baggage = append(baggage, obs.S("node", s.cfg.Node))
	}
	sc := s.obs.StartTrace(baggage...)
	j.root = sc.Span("jobs/job", 0)
	j.scope = j.root.Scope()
	j.traceID, _ = j.root.IDs()
	j.waitSpan = j.scope.Span("jobs/queue-wait", 0)
	j.mu.Unlock()
	j.transition(s.now(), StateQueued, -1, "admitted")
	if err := s.q.push(j); err != nil {
		reason := "quota"
		if err == ErrDeadline {
			reason = "deadline"
		} else if err == ErrClosed {
			reason = "closed"
		}
		s.counter("jobs_rejected_total", obs.Label{Key: "reason", Value: reason}).Inc()
		return nil, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.event(j, "jobs/state", 0, obs.S("state", string(StateQueued)))
	s.updateGauges()
	return j, nil
}

// Get returns a job by id (nil if unknown).
func (s *Server) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// List returns every job's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels a job: a queued job is removed and CANCELLED right away,
// a running job stops at its next step boundary. Returns false when the
// job is already terminal.
func (s *Server) Cancel(id string) (bool, error) {
	j := s.Get(id)
	if j == nil {
		return false, fmt.Errorf("jobs: unknown job %q", id)
	}
	if !j.requestCancel() {
		return false, nil
	}
	if s.q.remove(j) {
		s.endWait(j)
		j.transition(s.now(), StateCancelled, -1, "cancelled while queued")
		s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "cancelled"}).Inc()
		s.event(j, "jobs/state", 0, obs.S("state", string(StateCancelled)))
		s.endJob(j)
		s.updateGauges()
	}
	return true, nil
}

// expireJob finalises a job whose deadline passed while it waited.
func (s *Server) expireJob(j *Job) {
	s.endWait(j)
	j.transition(s.now(), StateFailed, -1, "deadline expired before dispatch")
	s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "failed"}).Inc()
	s.counter("jobs_deadline_expired_total").Inc()
	s.event(j, "jobs/state", 0, obs.S("state", string(StateFailed)), obs.S("reason", "deadline"))
	s.endJob(j)
	s.updateGauges()
}

// endJob closes the job's root trace span; called exactly once, at the
// terminal transition (the zero-span swap makes a stray second call a
// no-op).
func (s *Server) endJob(j *Job) {
	j.mu.Lock()
	root := j.root
	j.root = obs.Span{}
	j.mu.Unlock()
	root.End(obs.S("state", string(j.State())))
}

// worker is one dispatch loop: pop, run, repeat until the queue closes.
func (s *Server) worker(id int) {
	sole := s.cfg.Workers == 1
	for {
		j := s.q.pop(id, sole)
		if j == nil {
			return
		}
		s.runJob(id, j)
	}
}

// endWait closes the job's queue-wait span and observes the wait; the
// span's baggage already carries job/tenant. The worst recent wait keeps
// its trace/span IDs as the histogram's exemplar.
func (s *Server) endWait(j *Job) {
	j.mu.Lock()
	sp := j.waitSpan
	j.waitSpan = obs.Span{}
	enq := j.enqueued
	j.mu.Unlock()
	sp.End()
	if !enq.IsZero() {
		wait := s.now().Sub(enq).Seconds()
		if trace, span := sp.IDs(); span != "" {
			s.histogram("jobs_queue_wait_seconds").ObserveExemplar(wait, trace, span)
		} else {
			s.histogram("jobs_queue_wait_seconds").Observe(wait)
		}
	}
}

// runJob executes one RUNNING episode of j on worker w: build (or
// restore) the simulation, advance to the target step with periodic
// checkpoints, and finish — or checkpoint and re-queue when the job's
// device fleet degrades under it.
func (s *Server) runJob(w int, j *Job) {
	s.endWait(j)
	j.transition(s.now(), StateRunning, w, fmt.Sprintf("attempt %d on worker %d", j.Attempts()+1, w))
	s.event(j, "jobs/state", 0, obs.S("state", string(StateRunning)), obs.I("worker", w))
	s.updateGauges()

	// The run span is a child of the job's root; the attempt's simulation
	// runs under the run span's scope with attempt/worker baggage, so
	// every Advance-stage, fleet-band and solver span lands in the job's
	// causal tree.
	attempt := j.Attempts()
	runSpan := j.scope.Span("jobs/run", attempt)
	ro := runSpan.Scope().WithBaggage(obs.I("attempt", attempt), obs.I("worker", w))
	outcome, msg := s.runAttempt(w, j, attempt, ro)
	runSpan.End(obs.S("outcome", outcome), obs.I("worker", w))

	switch outcome {
	case "requeue":
		j.mu.Lock()
		j.avoid = w
		j.waitSpan = j.scope.Span("jobs/queue-wait", 0)
		j.mu.Unlock()
		j.transition(s.now(), StateQueued, w, msg)
		s.counter("jobs_resumes_total").Inc()
		s.event(j, "jobs/resume", 0, obs.S("reason", msg))
		if err := s.q.pushResume(j); err != nil {
			j.transition(s.now(), StateFailed, w, "control plane closed during resume")
			s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "failed"}).Inc()
		}
	case "done":
		j.transition(s.now(), StateDone, w, msg)
		s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "done"}).Inc()
		s.histogram("jobs_run_seconds").Observe(j.Status().RunSec)
	case "cancelled":
		j.transition(s.now(), StateCancelled, w, msg)
		s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "cancelled"}).Inc()
	default: // "failed"
		j.transition(s.now(), StateFailed, w, msg)
		s.counter("jobs_completed_total", obs.Label{Key: "state", Value: "failed"}).Inc()
	}
	s.event(j, "jobs/state", 0, obs.S("state", string(j.State())))
	if j.State().Terminal() {
		s.endJob(j)
	}
	s.updateGauges()
}

// runAttempt runs the simulation loop of one episode. It returns the
// outcome ("done", "failed", "cancelled", "requeue") and a detail message.
// Kernel panics (a fleet that loses its last device panics by contract)
// are recovered: with a checkpoint and resume budget left they convert to
// a requeue, otherwise to a failure.
func (s *Server) runAttempt(w int, j *Job, attempt int, ro *obs.Observer) (outcome, msg string) {
	defer func() {
		if r := recover(); r != nil {
			if data, _ := j.checkpointData(); data != nil && attempt <= s.cfg.MaxResumes {
				outcome, msg = "requeue", fmt.Sprintf("worker %d panic: %v", w, r)
				return
			}
			outcome, msg = "failed", fmt.Sprintf("worker %d panic: %v", w, r)
		}
	}()

	sim, fl, err := s.buildSim(j, attempt, ro)
	if err != nil {
		return "failed", err.Error()
	}
	target := j.Spec.TargetStep()
	for sim.Step < target {
		if j.cancelRequested() {
			return "cancelled", fmt.Sprintf("cancelled at step %d", sim.Step)
		}
		sim.Advance()
		step := sim.Step
		if step%s.cfg.ProgressEvery == 0 || step == target {
			st := sim.Ensemble.Stats()
			j.progress(s.now(), step, w, st.SigmaX, st.SigmaY)
			ro.Event("jobs/progress", step, obs.I("of", target))
		}
		failedDevs := 0
		if fl != nil {
			failedDevs, _ = fl.Counts()
		}
		if failedDevs > 0 {
			// The fleet finished the step on the survivors (bands retried,
			// results bitwise-intact), but the placement has lost hardware:
			// checkpoint at this boundary and hand the job back to the
			// queue for a fresh worker with a healthy pool.
			if err := s.checkpoint(j, sim, w, "device failure"); err != nil {
				return "failed", fmt.Sprintf("checkpoint after device failure: %v", err)
			}
			if attempt > s.cfg.MaxResumes {
				return "failed", fmt.Sprintf("device failure at step %d: resume budget exhausted", step)
			}
			return "requeue", fmt.Sprintf("device failure at step %d", step)
		}
		if s.cfg.CheckpointEvery > 0 && step%s.cfg.CheckpointEvery == 0 && step < target {
			if err := s.checkpoint(j, sim, w, "periodic"); err != nil {
				return "failed", fmt.Sprintf("checkpoint: %v", err)
			}
		}
	}
	if sim.Potential == nil {
		return "failed", "run finished without a potential grid"
	}
	st := sim.Ensemble.Stats()
	res := &Result{
		Step:     sim.Step,
		NX:       sim.Potential.NX,
		NY:       sim.Potential.NY,
		Data:     append([]float64(nil), sim.Potential.Data...),
		SigmaX:   st.SigmaX,
		SigmaY:   st.SigmaY,
		Attempts: attempt,
	}
	res.SHA256 = GridDigest(res.NX, res.NY, res.Data)
	j.mu.Lock()
	j.result = res
	j.checkpoint = nil // terminal: drop the restore state
	j.mu.Unlock()
	return "done", fmt.Sprintf("finished at step %d (%s)", sim.Step, res.SHA256[:12])
}

// buildSim constructs the episode's simulation: from the latest
// checkpoint when one exists, from the spec otherwise; then attaches the
// kernel (and fleet) plus the per-job alert engine. The run-scoped
// observer ro becomes the simulation's Obs, so Advance-stage spans (and
// the per-job devices' gpu_* metrics) land in the job's trace; telemetry
// never touches the physics, so the result stays bitwise-identical to an
// untraced run.
func (s *Server) buildSim(j *Job, attempt int, ro *obs.Observer) (*core.Simulation, *fleet.Fleet, error) {
	var sim *core.Simulation
	data, ckStep := j.checkpointData()
	if data != nil {
		var err error
		sim, err = core.Load(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("jobs: restoring %s from step-%d checkpoint: %w", j.ID, ckStep, err)
		}
		j.event(s.now(), "resume", ckStep, -1, fmt.Sprintf("restored from step-%d checkpoint", ckStep))
	} else {
		sim = core.New(j.Spec.CoreConfig())
	}
	newDev := s.cfg.NewDevice
	if newDev == nil {
		newDev = func(j *Job, attempt, id int) *gpusim.Device {
			dev := gpusim.New(gpusim.KeplerK40())
			dev.SetLabel(fmt.Sprintf("%s-a%d-dev%d", j.ID, attempt, id))
			return dev
		}
	}
	// First attempt iff we built from the spec: any episode starting from a
	// checkpoint is a resume and gets a fresh, healthy pool (the injection
	// script models the original hardware, not the job).
	algo, fl, err := j.Spec.BuildAlgo(func(id int) *gpusim.Device {
		dev := newDev(j, attempt, id)
		if s.obs != nil {
			dev.AttachRecorder(ro.GPURecorder())
		}
		return dev
	}, data == nil)
	if err != nil {
		return nil, nil, err
	}
	sim.Obs = ro
	sim.Algo = algo
	if fl != nil {
		sim.DeviceCounts = fl.Counts
	}
	if rules := j.Spec.AlertRules(); rules != nil {
		sim.Alerts = alert.NewEngine(alert.Config{
			Rules: rules,
			Obs:   ro,
			OnAlert: func(a alert.Alert) {
				j.event(s.now(), "alert", a.Step, -1, a.Message)
				s.counter("jobs_alerts_total").Inc()
			},
		})
	}
	return sim, fl, nil
}

// checkpoint saves the simulation at its current step boundary into the
// job record and logs it.
func (s *Server) checkpoint(j *Job, sim *core.Simulation, w int, reason string) error {
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		return err
	}
	j.setCheckpoint(sim.Step, buf.Bytes())
	s.counter("jobs_checkpoints_total").Inc()
	j.event(s.now(), "checkpoint", sim.Step, w, reason)
	s.event(j, "jobs/checkpoint", sim.Step, obs.S("reason", reason),
		obs.I("bytes", buf.Len()))
	return nil
}

// metric helpers: nil-safe shorthands over the observer's registry.
func (s *Server) counter(name string, labels ...obs.Label) *obs.Counter {
	if s.obs == nil {
		return nil
	}
	return s.obs.Reg.Counter(name, labels...)
}

func (s *Server) gauge(name string, labels ...obs.Label) *obs.Gauge {
	if s.obs == nil {
		return nil
	}
	return s.obs.Reg.Gauge(name, labels...)
}

// jobsWaitBuckets spans 100us..~7min: queue waits run from instant
// dispatch on an idle pool to many queued run durations.
var jobsWaitBuckets = obs.ExpBuckets(1e-4, 4, 12)

func (s *Server) histogram(name string) *obs.Histogram {
	if s.obs == nil {
		return nil
	}
	return s.obs.Reg.Histogram(name, jobsWaitBuckets)
}

// event emits a jobs/* trace event through the job's scoped observer
// (a trace file when one is configured): the scope's baggage supplies the
// job/tenant/node attrs, so — unlike the old per-call append — the
// disabled path allocates nothing.
func (s *Server) event(j *Job, name string, step int, attrs ...obs.Attr) {
	j.scope.Event(name, step, attrs...)
}

// updateGauges refreshes the per-state job gauges and the queue depth.
func (s *Server) updateGauges() {
	if s.obs == nil {
		return
	}
	s.mu.Lock()
	counts := make(map[State]int, len(AllStates))
	for _, j := range s.jobs {
		counts[j.State()]++
	}
	s.mu.Unlock()
	for _, st := range AllStates {
		s.gauge("jobs_state", obs.Label{Key: "state", Value: string(st)}).Set(float64(counts[st]))
	}
	s.gauge("jobs_queue_depth").Set(float64(s.q.depth()))
	s.gauge("jobs_running").Set(float64(counts[StateRunning]))
}
