package link

import (
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/optics"
)

// Monitor is the time-aware link-state machine layered on instantaneous
// received power. It models the §5.3 observation that "once the link is
// lost, it takes a few seconds to regain" — the SFP and NIC must re-lock
// after a loss of signal even though light returned immediately.
type Monitor struct {
	t optics.Transceiver

	// Metrics, when non-nil, counts connected-state transitions.
	Metrics *MonitorMetrics

	// HoldOver is the SFP's LOS-assert window: while the link is up, a
	// dark spell shorter than HoldOver does not unlock the transceiver —
	// the SerDes rides through on its clock-recovery flywheel. Zero (the
	// default) keeps the historical behavior of dropping on the first
	// dark sample; non-zero is what makes a make-before-break handover
	// worth anything, since a ~2 ms switch would otherwise still pay the
	// full RelockDelay.
	HoldOver time.Duration

	up bool
	// lightSince is when optical power was last continuously above
	// sensitivity while the link is down.
	lightSince time.Duration
	hasLight   bool
	// darkSince is when light was first continuously lost while the link
	// is up (holdover accounting).
	darkSince time.Duration
	hasDark   bool
}

// NewMonitor creates a monitor that starts in the connected state (the
// experiments begin from an aligned, locked link).
func NewMonitor(t optics.Transceiver) *Monitor {
	return &Monitor{t: t, up: true}
}

// MonitorMetrics counts the link-state machine's transitions.
type MonitorMetrics struct {
	Disconnects *obs.Counter // up → down
	Reconnects  *obs.Counter // down → up (after the SFP/NIC re-lock)
}

// NewMonitorMetrics registers the monitor instruments in reg (nil reg →
// nil metrics, recording disabled).
func NewMonitorMetrics(reg *obs.Registry) *MonitorMetrics {
	if reg == nil {
		return nil
	}
	return &MonitorMetrics{
		Disconnects: reg.Counter("cyclops_link_disconnects_total",
			"Link up-to-down transitions (loss of signal)."),
		Reconnects: reg.Counter("cyclops_link_reconnects_total",
			"Link down-to-up transitions (after the multi-second re-lock)."),
	}
}

// Observe feeds one (time, power) sample and returns whether the link is
// up after it. Samples must be fed in non-decreasing time order.
func (m *Monitor) Observe(at time.Duration, powerDBm float64) bool {
	light := powerDBm >= m.t.SensitivityDBm
	if m.up {
		if light {
			m.hasDark = false
			return true
		}
		// Dark while up: the LOS-assert clock runs from the first dark
		// sample, and the link unlocks once it reaches HoldOver. The
		// zero-HoldOver default makes that first dark sample itself the
		// disconnect — the historical drop-on-first-dark behavior, bit
		// for bit.
		if !m.hasDark {
			m.hasDark = true
			m.darkSince = at
		}
		if at-m.darkSince >= m.HoldOver {
			m.up = false
			m.hasLight = false
			m.hasDark = false
			if m.Metrics != nil {
				m.Metrics.Disconnects.Inc()
			}
		}
		return m.up
	}
	// Link down: track continuous light until relock.
	if !light {
		m.hasLight = false
		return false
	}
	// First light starts the re-lock clock and then falls through to the
	// same boundary check every later sample takes: a sample exactly at
	// lightSince + RelockDelay flips up before returning, so core.Run
	// sees the reconnect on the tick that satisfies the delay, including
	// the RelockDelay == 0 edge where first light itself is that tick.
	// (Previously the first-light sample returned false unconditionally,
	// so a zero-delay transceiver stayed down one extra tick.)
	if !m.hasLight {
		m.hasLight = true
		m.lightSince = at
	}
	if at-m.lightSince >= m.t.RelockDelay {
		m.up = true
		if m.Metrics != nil {
			m.Metrics.Reconnects.Inc()
		}
	}
	return m.up
}
