// Package fleet manages a fleet of simulated GPUs behind a device-manager
// abstraction with lifecycle states, injectable health events, and a
// cost-predicting dynamic scheduler for the compute-potentials stage.
//
// A static split (one contiguous row-band per device) assumes every
// device is healthy, equally fast, and that every band costs the same.
// None of those hold in a production fleet: devices fail mid-step, run
// degraded, or get drained for maintenance, and the rp-integral's cost is
// wildly non-uniform across grid rows. This package supplies the one
// multi-device arrangement:
//
//   - Manager — a device registry holding *gpusim.Device handles with the
//     lifecycle states Healthy / Degraded / Draining / Failed. Fixed is
//     the real implementation (states change administratively);
//     Injectable is the testing fake that accepts scripted health events
//     (mid-step failure, slowdown factor, recover-at-step) in the style
//     of GPU-manager fakes used by fleet-management systems.
//   - Fleet — a kernels.Algorithm that over-decomposes the target grid
//     into row-bands (as many as devices, or more), keeps one kernel per
//     band so each band learns only from its own history, orders and
//     places the bands by predicted cost (each band's Predictive forecast
//     of its access-pattern totals when trained, last-step measured band
//     cost otherwise), dispatches them through per-device work queues
//     with work stealing, and retries bands whose device fails mid-step
//     on surviving devices. Grids do not depend on where a band ran.
//
// Every stochastic choice the scheduler makes (steal victim, retry
// placement) draws from an explicitly seeded generator, so runs are
// reproducible per the repository convention. Fleet metrics (bands
// dispatched / stolen / retried, device state transitions, per-device
// utilization) are emitted through the obs registry when an observer is
// attached.
package fleet

import (
	"errors"
	"fmt"

	"beamdyn/internal/gpusim"
)

// State is a device lifecycle state.
type State int

// The device lifecycle. Healthy and Degraded devices accept work
// (Degraded devices run slowed by their slowdown factor); Draining
// devices finish nothing new; Failed devices are gone for good unless a
// recover event revives them.
const (
	Healthy State = iota
	Degraded
	Draining
	Failed
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Schedulable reports whether a device in this state accepts new bands.
func (s State) Schedulable() bool { return s == Healthy || s == Degraded }

// Transition records one device state change.
type Transition struct {
	// Step is the simulation step during which the transition happened.
	Step int
	// Device is the device index.
	Device int
	// From and To are the states before and after.
	From, To State
	// Reason is a human-readable cause ("scripted failure", "drain", ...).
	Reason string
}

// Errors returned by Manager.ExecBand. ErrUnavailable means the device
// refused the band before running it (no work was lost); ErrMidBand means
// the device died while the band ran and its results must be discarded.
var (
	ErrUnavailable = errors.New("device unavailable")
	ErrMidBand     = errors.New("device failed mid-band")
)

// Manager is the device-fleet registry the scheduler runs against. The
// real implementation is Fixed; Injectable is the scripted fake for
// fault-injection tests. Implementations must be safe for concurrent use
// by the per-device scheduler workers.
type Manager interface {
	// NumDevices returns the registry size, counting devices in every
	// state.
	NumDevices() int
	// Device returns the simulated-GPU handle of device id.
	Device(id int) *gpusim.Device
	// State returns device id's current lifecycle state.
	State(id int) State
	// Slowdown returns the multiplicative simulated-time factor of device
	// id (1 for a healthy device, >1 for a degraded one).
	Slowdown(id int) float64
	// BeginStep tells the manager that simulation step step is starting,
	// so scripted health events due at the step boundary can fire.
	BeginStep(step int)
	// ExecBand runs one band's kernel work fn on device id. It returns
	// ErrUnavailable without calling fn when the device cannot accept
	// work, and ErrMidBand after calling fn when the device failed while
	// the band ran (the caller must discard fn's results and retry the
	// band elsewhere). A device that fails during the band is already
	// Failed while fn runs, so fn can tell its results will be lost.
	ExecBand(id int, fn func(dev *gpusim.Device)) error
	// SetState administratively transitions device id (e.g. draining a
	// device for maintenance).
	SetState(id int, s State, reason string)
	// Transitions returns a copy of every recorded state transition, in
	// order.
	Transitions() []Transition
}
