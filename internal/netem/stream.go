// Package netem provides the traffic layer of the evaluation: an
// iperf-equivalent bulk TCP stream measured over 50 ms windows (the §5.3
// methodology), and a VR frame streamer that models the renderer→headset
// video flow the link exists to carry.
//
// The package is deliberately decoupled from the optics: it consumes a
// per-tick link verdict (up/down + line rate) and produces packet and
// throughput accounting. The link-state dynamics (sensitivity threshold,
// SFP re-lock) live in internal/link.
package netem

import (
	"math"
	"time"

	"cyclops/internal/obs"
)

// Window is one throughput measurement: average goodput over the window
// starting at Start.
type Window struct {
	Start time.Duration
	Gbps  float64
}

// Stream is a bulk-transfer (iperf-style) sender measured over fixed
// windows. TCP dynamics are reduced to the one effect that shapes the
// paper's plots: after an outage, goodput ramps back linearly over
// RampTime (connection re-establishment + slow start) instead of stepping
// instantly to full rate.
type Stream struct {
	// WindowLen is the measurement window (the paper uses 50 ms).
	WindowLen time.Duration
	// MTU is the packet payload size in bytes (1500 default).
	MTU int
	// RampTime is the time to return to full rate after an outage.
	RampTime time.Duration
	// Metrics, when non-nil, receives the stream's totals (packets,
	// carried/offered bits, windows) once, when Finish is called —
	// aggregate flushing keeps the per-tick cost at two float adds.
	Metrics *StreamMetrics

	cur     time.Duration // current window start
	bits    float64       // bits delivered in the current window
	started bool
	upAt    time.Duration // when the link last came up
	wasUp   bool
	packets int64
	// fracPkts carries the sub-packet remainder between ticks: a tick
	// rarely delivers a whole number of MTUs (833.33 at 10 Gbps over
	// 1 ms), and truncating per tick would systematically undercount.
	fracPkts float64
	windows  []Window
	// curFrozen marks the current window as containing frozen
	// (degraded-mode) ticks; frozen windows are dropped at rollover
	// instead of being reported as fabricated zero-goodput measurements.
	curFrozen     bool
	frozenWindows int64
	// carriedBits / offeredBits total the run: offered counts the line
	// rate over every tick (up or down), so carried/offered is the
	// fraction of the link's nominal capacity actually delivered.
	carriedBits float64
	offeredBits float64
	flushed     bool
}

// StreamMetrics holds the traffic layer's observability instruments.
type StreamMetrics struct {
	Packets     *obs.Counter
	CarriedBits *obs.Counter
	OfferedBits *obs.Counter
	Windows     *obs.Counter
}

// NewStreamMetrics registers the stream instruments in reg (nil reg → nil
// metrics, recording disabled).
func NewStreamMetrics(reg *obs.Registry) *StreamMetrics {
	if reg == nil {
		return nil
	}
	return &StreamMetrics{
		Packets: reg.Counter("cyclops_netem_packets_total",
			"MTU-sized packets delivered by the bulk stream."),
		CarriedBits: reg.Counter("cyclops_netem_carried_bits_total",
			"Bits actually delivered (after outages and TCP ramp)."),
		OfferedBits: reg.Counter("cyclops_netem_offered_bits_total",
			"Bits the link would carry at the optimal rate with zero downtime."),
		Windows: reg.Counter("cyclops_netem_windows_total",
			"Completed 50 ms throughput measurement windows."),
	}
}

// NewStream builds a stream with the paper's measurement parameters.
func NewStream() *Stream {
	return &Stream{
		WindowLen: 50 * time.Millisecond,
		MTU:       1500,
		RampTime:  150 * time.Millisecond,
	}
}

// Tick advances the stream by tickLen at simulation time at: the link is
// either up at lineRateGbps or down. Ticks must be fed in order and
// aligned (at is the tick start).
func (s *Stream) Tick(at, tickLen time.Duration, up bool, lineRateGbps float64) {
	if !s.started {
		s.started = true
		s.cur = at
		s.wasUp = up
		s.upAt = at
	}
	// Window rollover (possibly multiple if ticks are coarse).
	for at >= s.cur+s.WindowLen {
		s.flushWindow()
	}

	if up && !s.wasUp {
		s.upAt = at
	}
	s.wasUp = up

	s.offeredBits += lineRateGbps * 1e9 * tickLen.Seconds()
	if up {
		rate := lineRateGbps
		if s.RampTime > 0 {
			sinceUp := at - s.upAt
			if sinceUp < s.RampTime {
				rate *= float64(sinceUp) / float64(s.RampTime)
			}
		}
		bits := rate * 1e9 * tickLen.Seconds()
		s.bits += bits
		s.carriedBits += bits
		s.fracPkts += bits / 8 / float64(s.MTU)
		if whole := math.Floor(s.fracPkts); whole > 0 {
			s.packets += int64(whole)
			s.fracPkts -= whole
		}
	}
}

func (s *Stream) flushWindow() {
	if s.curFrozen {
		// The window spent time in degraded mode: its accounting is
		// frozen, not measured-at-zero. Drop it rather than report a
		// throughput number the stream never observed.
		s.curFrozen = false
		s.frozenWindows++
		s.cur += s.WindowLen
		s.bits = 0
		return
	}
	gbps := s.bits / 1e9 / s.WindowLen.Seconds()
	s.windows = append(s.windows, Window{Start: s.cur, Gbps: gbps})
	s.cur += s.WindowLen
	s.bits = 0
}

// FreezeTick advances the stream clock by one tick without accruing any
// offered or carried bits — the graceful-degradation mode: when the
// supervisor declares the link degraded, traffic accounting pauses
// instead of charging a long outage against the throughput record.
// Windows containing frozen ticks are dropped at rollover (counted in
// frozenWindows), and the link is treated as down so TCP re-ramps when
// normal ticks resume. Mixing FreezeTick and Tick within one window
// drops that window entirely.
func (s *Stream) FreezeTick(at, tickLen time.Duration) {
	if !s.started {
		s.started = true
		s.cur = at
		s.upAt = at
	}
	for at >= s.cur+s.WindowLen {
		s.flushWindow()
	}
	s.curFrozen = true
	s.wasUp = false
}

// Finish returns all completed measurements. A partially filled trailing
// window is discarded — averaging a fraction of a window against the full
// window length would fabricate a throughput dip that never happened.
// If Metrics is attached, the stream's totals are flushed into it exactly
// once, on the first Finish.
func (s *Stream) Finish() []Window {
	if s.Metrics != nil && !s.flushed {
		s.flushed = true
		s.Metrics.Packets.Add(float64(s.packets))
		s.Metrics.CarriedBits.Add(s.carriedBits)
		s.Metrics.OfferedBits.Add(s.offeredBits)
		s.Metrics.Windows.Add(float64(len(s.windows)))
	}
	return s.windows
}

// MeanGbps returns the average goodput across all completed windows.
func (s *Stream) MeanGbps() float64 {
	if len(s.windows) == 0 {
		return 0
	}
	var sum float64
	for _, w := range s.windows {
		sum += w.Gbps
	}
	return sum / float64(len(s.windows))
}
