// Package jobs is the simulation job control plane: it turns the one-shot
// simulation loop into a long-running service where runs are submitted,
// queued, scheduled, observed and recovered as first-class jobs.
//
// The pieces, front to back:
//
//   - Spec — a declarative JSON job payload (beam, grid, steps, kernel,
//     fleet topology, injection script, alert rules, priority / deadline /
//     tenant). It doubles as the scenario format of the catalog under
//     examples/scenarios.
//   - Queue — a multi-tenant priority queue: FIFO within priority,
//     per-tenant admission quotas, deadline-based admission and expiry,
//     and cancellation of queued jobs.
//   - Server — the scheduler/dispatcher: a pool of workers, each running
//     one job at a time on a per-job device fleet (internal/fleet over
//     internal/gpusim, host phases on internal/hostpar). Running jobs
//     checkpoint at step boundaries through the core gob machinery; a job
//     whose fleet loses a device is checkpointed, re-queued and resumed on
//     a fresh worker with a healthy device pool, bitwise-identically to an
//     uninterrupted run.
//   - Handler — the HTTP/JSON API (POST /jobs, GET /jobs/{id}, SSE events,
//     result fetch, DELETE) designed to be mounted onto the
//     internal/obs/export server, with jobs_* metrics and per-job trace
//     spans flowing into the same observer (and trace file) as everything
//     else.
package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"beamdyn/internal/core"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
)

// BeamSpec is the JSON shape of the bunch parameters.
type BeamSpec struct {
	// Particles is the macro-particle count N.
	Particles int `json:"particles"`
	// ChargeC is the total bunch charge in coulombs.
	ChargeC float64 `json:"charge_c"`
	// SigmaX, SigmaY are the transverse / longitudinal RMS sizes in metres.
	SigmaX float64 `json:"sigma_x_m"`
	SigmaY float64 `json:"sigma_y_m"`
	// EnergyEV is the kinetic energy in eV.
	EnergyEV float64 `json:"energy_ev"`
	// EmittanceM is the transverse RMS emittance in m·rad (0 = cold beam).
	EmittanceM float64 `json:"emittance_m,omitempty"`
	// Shape selects the longitudinal profile: "gaussian" (default),
	// "flattop", "double-gaussian" or "parabolic".
	Shape string `json:"shape,omitempty"`
}

// GridSpec is the JSON shape of the moment-grid geometry.
type GridSpec struct {
	// NX, NY is the grid resolution; NY defaults to NX.
	NX int `json:"nx"`
	NY int `json:"ny,omitempty"`
	// PadSigma is the grid half-extent in beam sigmas (default 5).
	PadSigma float64 `json:"pad_sigma,omitempty"`
}

// FleetSpec is the JSON shape of the device topology a job runs on.
type FleetSpec struct {
	// Devices is the simulated-device count of the job's fleet (default 1).
	Devices int `json:"devices,omitempty"`
	// Bands fixes the scheduler's row-band over-decomposition; 0 lets the
	// fleet derive it. Pin it when bitwise reproducibility across resumes
	// matters (the dispatcher's recovery guarantee relies on it, so
	// Validate requires it for multi-device jobs).
	Bands int `json:"bands,omitempty"`
	// Inject scripts health events against the job's first placement, in
	// the fleet.ParseEvents grammar ("fail:dev=1,step=9,after=1;...").
	// Resumed attempts get a fresh, healthy pool: the script models the
	// original hardware, not the job.
	Inject string `json:"inject,omitempty"`
}

// LatticeSpec is the JSON shape of the bend geometry (default: LCLS bend).
type LatticeSpec struct {
	BendRadiusM  float64 `json:"bend_radius_m"`
	BendAngleDeg float64 `json:"bend_angle_deg"`
}

// Spec is the declarative job payload: everything needed to run one
// simulation as a managed job. The zero values of the optional fields are
// filled by Normalize; Validate rejects payloads the dispatcher could not
// run. Unknown JSON fields are rejected at parse time, so typos fail at
// submission rather than silently running a default.
type Spec struct {
	// Name labels the job (required; [a-z0-9-] only).
	Name string `json:"name"`
	// Tenant is the submitting tenant for quota accounting (default
	// "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: 0 (batch) .. 9 (urgent), default 0.
	// Within a priority the queue is FIFO.
	Priority int `json:"priority,omitempty"`
	// DeadlineSec is the admission deadline, seconds after submission: a
	// job that has not started running by then is rejected (at submit time
	// when it cannot be met at all) or failed at dispatch time. 0 = none.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`

	Beam    BeamSpec     `json:"beam"`
	Grid    GridSpec     `json:"grid"`
	Lattice *LatticeSpec `json:"lattice,omitempty"`
	// Steps is the number of time steps after the retardation history has
	// filled (the same count beamsim -steps runs).
	Steps int `json:"steps"`
	// Kernel selects the compute-potentials algorithm: "reference",
	// "twophase", "heuristic" or "predictive" (default).
	Kernel string `json:"kernel,omitempty"`
	// Kappa is the retardation depth in subregions (default 6).
	Kappa int `json:"kappa,omitempty"`
	// Tol is the rp-integral tolerance (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// Seed seeds the Monte-Carlo sampling and the fleet scheduler.
	Seed uint64 `json:"seed,omitempty"`
	// Dynamic lets the bunch respond to its self-forces (default: rigid).
	Dynamic bool `json:"dynamic,omitempty"`
	// HostWorkers bounds the kernels' host-phase worker pool (0 =
	// GOMAXPROCS; results are identical for any value).
	HostWorkers int `json:"host_workers,omitempty"`

	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Alerts is a per-step alert rule script in the alert.ParseRules
	// grammar ("default" selects the built-in set; empty disables).
	// Firing alerts surface as job events.
	Alerts string `json:"alerts,omitempty"`
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields, and
// normalizes + validates it.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("jobs: parsing spec: %w", err)
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// LoadSpec reads and parses a Spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sp, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Normalize fills defaulted fields in place, so a normalized spec
// re-marshals to its full form (the catalog round-trip contract).
func (sp *Spec) Normalize() {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Kernel == "" {
		sp.Kernel = "predictive"
	}
	if sp.Beam.Shape == "" {
		sp.Beam.Shape = "gaussian"
	}
	if sp.Grid.NY == 0 {
		sp.Grid.NY = sp.Grid.NX
	}
	if sp.Grid.PadSigma == 0 {
		sp.Grid.PadSigma = 5
	}
	if sp.Kappa == 0 {
		sp.Kappa = 6
	}
	if sp.Tol == 0 {
		sp.Tol = 1e-8
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Fleet != nil && sp.Fleet.Devices == 0 {
		sp.Fleet.Devices = 1
	}
}

// kernelNames maps the spec's kernel field to a constructor (nil =
// sequential host reference).
var kernelNames = map[string]func(*gpusim.Device) kernels.Algorithm{
	"reference": nil,
	"twophase":  func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) },
	"heuristic": func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) },
	"predictive": func(d *gpusim.Device) kernels.Algorithm {
		return kernels.NewPredictive(d)
	},
}

// shapeNames maps the beam spec's shape field to the sampler.
var shapeNames = map[string]particles.Shape{
	"gaussian":        particles.GaussianShape,
	"flattop":         particles.FlatTopShape,
	"double-gaussian": particles.DoubleGaussianShape,
	"parabolic":       particles.ParabolicShape,
}

// Validate checks a normalized spec, returning the first problem found.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("jobs: spec: missing name")
	}
	for _, r := range sp.Name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return fmt.Errorf("jobs: spec %q: name must be [a-z0-9-]", sp.Name)
		}
	}
	if sp.Priority < 0 || sp.Priority > 9 {
		return fmt.Errorf("jobs: spec %q: priority %d outside [0, 9]", sp.Name, sp.Priority)
	}
	if sp.DeadlineSec < 0 {
		return fmt.Errorf("jobs: spec %q: negative deadline", sp.Name)
	}
	if sp.Steps <= 0 {
		return fmt.Errorf("jobs: spec %q: steps must be positive", sp.Name)
	}
	if sp.Grid.NX < 2 || sp.Grid.NY < 2 {
		return fmt.Errorf("jobs: spec %q: grid %dx%d too small", sp.Name, sp.Grid.NX, sp.Grid.NY)
	}
	if sp.Beam.Particles <= 0 {
		return fmt.Errorf("jobs: spec %q: beam.particles must be positive", sp.Name)
	}
	if sp.Beam.SigmaX <= 0 || sp.Beam.SigmaY <= 0 || sp.Beam.EnergyEV <= 0 {
		return fmt.Errorf("jobs: spec %q: beam sigmas and energy must be positive", sp.Name)
	}
	if _, ok := kernelNames[sp.Kernel]; !ok {
		return fmt.Errorf("jobs: spec %q: unknown kernel %q", sp.Name, sp.Kernel)
	}
	if _, ok := shapeNames[sp.Beam.Shape]; !ok {
		return fmt.Errorf("jobs: spec %q: unknown beam shape %q", sp.Name, sp.Beam.Shape)
	}
	if sp.Fleet != nil {
		if sp.Kernel == "reference" {
			return fmt.Errorf("jobs: spec %q: the reference kernel runs on the host; it cannot drive a fleet", sp.Name)
		}
		if sp.Fleet.Devices < 1 {
			return fmt.Errorf("jobs: spec %q: fleet.devices must be >= 1", sp.Name)
		}
		if sp.Fleet.Devices > 1 && sp.Fleet.Bands <= 0 {
			return fmt.Errorf("jobs: spec %q: multi-device jobs must pin fleet.bands (the bitwise resume guarantee needs a fixed over-decomposition)", sp.Name)
		}
		if sp.Fleet.Inject != "" {
			if _, err := fleet.ParseEvents(sp.Fleet.Inject); err != nil {
				return fmt.Errorf("jobs: spec %q: %w", sp.Name, err)
			}
		}
	}
	if sp.Alerts != "" && sp.Alerts != "default" {
		if _, err := alert.ParseRules(sp.Alerts); err != nil {
			return fmt.Errorf("jobs: spec %q: %w", sp.Name, err)
		}
	}
	return nil
}

// CoreConfig translates the spec into a core simulation configuration.
func (sp *Spec) CoreConfig() core.Config {
	lat := phys.LCLSBend()
	if sp.Lattice != nil {
		lat = phys.Lattice{
			BendRadius: sp.Lattice.BendRadiusM,
			BendAngle:  phys.Degrees(sp.Lattice.BendAngleDeg),
		}
	}
	return core.Config{
		Beam: phys.Beam{
			NumParticles: sp.Beam.Particles,
			TotalCharge:  sp.Beam.ChargeC,
			SigmaX:       sp.Beam.SigmaX,
			SigmaY:       sp.Beam.SigmaY,
			Energy:       sp.Beam.EnergyEV,
			Emittance:    sp.Beam.EmittanceM,
		},
		Lattice:     lat,
		NX:          sp.Grid.NX,
		NY:          sp.Grid.NY,
		PadSigma:    sp.Grid.PadSigma,
		Kappa:       sp.Kappa,
		Tol:         sp.Tol,
		Seed:        sp.Seed,
		Rigid:       !sp.Dynamic,
		Shape:       shapeNames[sp.Beam.Shape],
		Scheme:      grid.CIC,
		HostWorkers: sp.HostWorkers,
	}
}

// TargetStep is the simulation step count a finished job has executed:
// the retardation warm-up (Kappa + 3 history grids) plus Steps full steps.
// Only meaningful on a normalized spec.
func (sp *Spec) TargetStep() int { return sp.Kappa + 3 + sp.Steps }

// Devices returns the job's device count (1 when no fleet block is given).
func (sp *Spec) Devices() int {
	if sp.Fleet == nil {
		return 1
	}
	return sp.Fleet.Devices
}

// BuildAlgo constructs the compute-potentials algorithm of one job attempt
// on freshly made devices. newDev builds device id (labelled and wired to
// telemetry by the caller). The injection script is applied only when
// firstAttempt: a resumed job runs on a fresh, healthy pool. The returned
// fleet handle is nil for reference and bare single-device kernels.
func (sp *Spec) BuildAlgo(newDev func(id int) *gpusim.Device, firstAttempt bool) (kernels.Algorithm, *fleet.Fleet, error) {
	mk := kernelNames[sp.Kernel]
	if mk == nil { // host reference
		return nil, nil, nil
	}
	if sp.Fleet == nil {
		return mk(newDev(0)), nil, nil
	}
	devs := make([]*gpusim.Device, sp.Fleet.Devices)
	for d := range devs {
		devs[d] = newDev(d)
	}
	var mgr fleet.Manager
	if sp.Fleet.Inject != "" && firstAttempt {
		events, err := fleet.ParseEvents(sp.Fleet.Inject)
		if err != nil {
			return nil, nil, err
		}
		mgr = fleet.NewInjectable(devs, events)
	} else {
		mgr = fleet.NewFixed(devs)
	}
	fl := fleet.New(fleet.Config{
		Manager:    mgr,
		MakeKernel: mk,
		Bands:      sp.Fleet.Bands,
		Seed:       sp.Seed,
	})
	return fl, fl, nil
}

// AlertRules parses the spec's alert script ("" -> nil, "default" -> the
// built-in set). Validate has already proven it parses.
func (sp *Spec) AlertRules() []alert.Rule {
	script := sp.Alerts
	switch script {
	case "":
		return nil
	case "default":
		script = alert.DefaultRules
	}
	rules, err := alert.ParseRules(script)
	if err != nil {
		return nil
	}
	return rules
}

// String renders the spec compactly for logs.
func (sp *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (tenant=%s prio=%d %dx%d steps=%d kernel=%s",
		sp.Name, sp.Tenant, sp.Priority, sp.Grid.NX, sp.Grid.NY, sp.Steps, sp.Kernel)
	if sp.Fleet != nil && sp.Fleet.Devices > 1 {
		fmt.Fprintf(&b, " devices=%d", sp.Fleet.Devices)
	}
	b.WriteString(")")
	return b.String()
}
