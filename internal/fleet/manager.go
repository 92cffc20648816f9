package fleet

import (
	"fmt"
	"sync"

	"beamdyn/internal/gpusim"
)

// registry is the state shared by both Manager implementations: device
// handles, lifecycle states, slowdown factors and the transition log.
type registry struct {
	mu    sync.Mutex
	devs  []*gpusim.Device
	state []State
	slow  []float64
	trans []Transition
	step  int
}

func (r *registry) init(devs []*gpusim.Device) {
	if len(devs) == 0 {
		panic("fleet: empty device registry")
	}
	r.devs = devs
	r.state = make([]State, len(devs))
	r.slow = make([]float64, len(devs))
	for i := range r.slow {
		r.slow[i] = 1
	}
}

func (r *registry) check(id int) {
	if id < 0 || id >= len(r.devs) {
		panic(fmt.Sprintf("fleet: device %d out of range [0, %d)", id, len(r.devs)))
	}
}

// NumDevices implements Manager.
func (r *registry) NumDevices() int { return len(r.devs) }

// Device implements Manager.
func (r *registry) Device(id int) *gpusim.Device {
	r.check(id)
	return r.devs[id]
}

// State implements Manager.
func (r *registry) State(id int) State {
	r.check(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state[id]
}

// Slowdown implements Manager.
func (r *registry) Slowdown(id int) float64 {
	r.check(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slow[id]
}

// SetState implements Manager, recording the transition when the state
// actually changes.
func (r *registry) SetState(id int, s State, reason string) {
	r.check(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setStateLocked(id, s, reason)
}

func (r *registry) setStateLocked(id int, s State, reason string) {
	if r.state[id] == s {
		return
	}
	r.trans = append(r.trans, Transition{
		Step: r.step, Device: id,
		From: r.state[id], To: s, Reason: reason,
	})
	r.state[id] = s
	if s == Healthy {
		r.slow[id] = 1
	}
}

// SetSlowdown sets device id's simulated-time slowdown factor (used with
// a Degraded transition).
func (r *registry) SetSlowdown(id int, factor float64) {
	r.check(id)
	if factor <= 0 {
		panic(fmt.Sprintf("fleet: non-positive slowdown %g", factor))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slow[id] = factor
}

// Transitions implements Manager.
func (r *registry) Transitions() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Transition, len(r.trans))
	copy(out, r.trans)
	return out
}

// Fixed is the real Manager: a static registry of devices that stay in
// the state they were put in. Health changes only through administrative
// SetState calls (there is no hardware below the simulator that could
// fail on its own), which makes it the production counterpart of the
// Injectable fake.
type Fixed struct {
	registry
}

// NewFixed returns a Manager over the given devices, all Healthy.
func NewFixed(devs []*gpusim.Device) *Fixed {
	m := &Fixed{}
	m.init(devs)
	return m
}

// BeginStep implements Manager.
func (m *Fixed) BeginStep(step int) {
	m.mu.Lock()
	m.step = step
	m.mu.Unlock()
}

// ExecBand implements Manager: the band runs unless the device has been
// administratively failed or drained.
func (m *Fixed) ExecBand(id int, fn func(dev *gpusim.Device)) error {
	m.check(id)
	m.mu.Lock()
	st := m.state[id]
	m.mu.Unlock()
	if !st.Schedulable() {
		return fmt.Errorf("fleet: device %d is %s: %w", id, st, ErrUnavailable)
	}
	fn(m.devs[id])
	return nil
}

// scriptedEvent is one injected event plus its firing state.
type scriptedEvent struct {
	Event
	fired     bool
	recovered bool
}

// Injectable is the fault-injection Manager: a registry whose health
// changes are driven by a script of Events, so tests and chaos runs can
// rehearse mid-step failures, slowdowns and recoveries deterministically.
type Injectable struct {
	registry
	events []scriptedEvent
	// bandsDone counts bands completed per device within the current
	// step; Fail events with After > 0 fire against it.
	bandsDone []int
}

// NewInjectable returns a Manager over the given devices whose health
// follows the scripted events (see ParseEvents for the flag grammar).
func NewInjectable(devs []*gpusim.Device, events []Event) *Injectable {
	m := &Injectable{bandsDone: make([]int, len(devs))}
	m.init(devs)
	for _, e := range events {
		if e.Device < 0 || e.Device >= len(devs) {
			panic(fmt.Sprintf("fleet: event %s targets device %d of %d", e, e.Device, len(devs)))
		}
		m.events = append(m.events, scriptedEvent{Event: e})
	}
	return m
}

// BeginStep implements Manager: step-boundary events fire here, and
// mid-step failure windows that were never reached expire.
func (m *Injectable) BeginStep(step int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.step = step
	for i := range m.bandsDone {
		m.bandsDone[i] = 0
	}
	for i := range m.events {
		ev := &m.events[i]
		switch ev.Kind {
		case EventFail:
			if !ev.fired && ev.After > 0 && step > ev.Step {
				// The device never completed enough bands during the
				// scripted step; the window is gone.
				ev.fired = true
			}
			if !ev.fired && ev.After == 0 && step == ev.Step {
				m.setStateLocked(ev.Device, Failed, "scripted failure")
				ev.fired = true
			}
		case EventSlow:
			if !ev.fired && step == ev.Step {
				m.setStateLocked(ev.Device, Degraded, "scripted slowdown")
				m.slow[ev.Device] = ev.Factor
				ev.fired = true
			}
			if ev.fired && !ev.recovered && ev.Until > 0 && step >= ev.Until {
				if m.state[ev.Device] == Degraded {
					m.setStateLocked(ev.Device, Healthy, "scripted recovery")
				}
				ev.recovered = true
			}
		case EventDrain:
			if !ev.fired && step == ev.Step {
				m.setStateLocked(ev.Device, Draining, "scripted drain")
				ev.fired = true
			}
		case EventRecover:
			if !ev.fired && step == ev.Step {
				m.setStateLocked(ev.Device, Healthy, "scripted recovery")
				ev.fired = true
			}
		}
	}
}

// ExecBand implements Manager. A scripted mid-step failure whose band
// count this band reaches kills the device as the band starts: fn still
// runs (the device stays busy until it dies), sees the device Failed, and
// the band comes back voided with ErrMidBand.
func (m *Injectable) ExecBand(id int, fn func(dev *gpusim.Device)) error {
	m.check(id)
	m.mu.Lock()
	st := m.state[id]
	if !st.Schedulable() {
		m.mu.Unlock()
		return fmt.Errorf("fleet: device %d is %s: %w", id, st, ErrUnavailable)
	}
	m.bandsDone[id]++
	lost := false
	for i := range m.events {
		ev := &m.events[i]
		if ev.Kind == EventFail && !ev.fired && ev.After > 0 &&
			ev.Device == id && ev.Step == m.step && m.bandsDone[id] >= ev.After {
			m.setStateLocked(id, Failed, "scripted mid-step failure")
			ev.fired = true
			lost = true
		}
	}
	m.mu.Unlock()
	fn(m.devs[id])
	if lost {
		return fmt.Errorf("fleet: device %d: %w", id, ErrMidBand)
	}
	return nil
}
