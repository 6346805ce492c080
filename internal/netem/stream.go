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
	"math/bits"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/xmath"
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
	// aggregate flushing keeps the counters out of Tick and TickRun.
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
	curFrozen bool
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
	s := &Stream{}
	s.Reset()
	return s
}

// Reset returns s to the state NewStream builds, Metrics detached, but
// keeps its window storage, so a stream reused for a run no longer than
// the last one allocates nothing. The slice an earlier Finish returned
// shares that storage: the next run overwrites it.
func (s *Stream) Reset() {
	*s = Stream{
		WindowLen: 50 * time.Millisecond,
		MTU:       1500,
		RampTime:  150 * time.Millisecond,
		windows:   s.windows[:0],
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
		s.fracPkts, s.packets = carryStep(s.fracPkts, bits/8/float64(s.MTU), s.packets)
	}
}

// TickRun advances the stream by n ticks of tickLen from at with one
// verdict: exactly the n calls Tick(at+k·tickLen, tickLen, up,
// lineRateGbps) for k = 0 … n−1, bit for bit. Tick takes the first tick,
// each window's first tick, and every up tick inside the TCP ramp (an up
// edge restarts it); every other stretch of a window is one piece whose
// per-tick float adds are taken at once: offered, window and carried bits
// through xmath.AddN, and the fractional-packet carry through carryN.
//
//cyclops:hotpath bulk netem accounting of the arena's contention pass, one call per verdict run and backhaul share; zero-alloc contract pinned by TestTickRunZeroAllocs and make alloc-check
func (s *Stream) TickRun(at, tickLen time.Duration, n int, up bool, lineRateGbps float64) {
	for n > 0 {
		end := s.cur + s.WindowLen
		if !s.started || at >= end || tickLen <= 0 || up && (!s.wasUp || at-s.upAt < s.RampTime) {
			s.Tick(at, tickLen, up, lineRateGbps)
			at += tickLen
			n--
			continue
		}
		// The k ticks from at that start before the window ends.
		k := int((end - at + tickLen - 1) / tickLen)
		if k > n {
			k = n
		}
		s.wasUp = up
		bits := lineRateGbps * 1e9 * tickLen.Seconds()
		s.offeredBits = xmath.AddN(s.offeredBits, bits, k)
		if up {
			s.bits = xmath.AddN(s.bits, bits, k)
			s.carriedBits = xmath.AddN(s.carriedBits, bits, k)
			var whole int64
			s.fracPkts, whole = carryN(s.fracPkts, bits/8/float64(s.MTU), k)
			s.packets += whole
		}
		at += time.Duration(k) * tickLen
		n -= k
	}
}

// carryN returns f after n steps of Tick's fractional-packet carry,
//
//	f += c
//	if w := math.Floor(f); w > 0 {
//		packets += int64(w)
//		f -= w
//	}
//
// and the packets those steps add, bit for bit and in O(1) on its fast
// path.
//
// Let c lie in the binade [2ᵉ, 2ᵉ⁺¹) with 0 ≤ e ≤ 52, so its ulp
// u = 2ᵉ⁻⁵² is at most 1. The first step runs in hardware; from any
// finite f ≥ 0 it leaves f in [0, 1) on the grid of u (the sum lands at or
// above c, where every float is a multiple of u, and taking off its
// integer part is exact). From there, while c + 1 ≤ 2ᵉ⁺¹, each sum
// f + c is a multiple of u in [c, c+1) ⊂ [2ᵉ, 2ᵉ⁺¹), so it is exact, as
// are its floor and the subtraction: the steps are integer arithmetic on
// F = f/u, C = c/u and M = 1/u = 2⁵²⁻ᵉ. After n of them the carried
// total is F + n·C (n·C by bits.Mul64), the packets are its quotient by M
// and the new F its remainder. Any other input — c below 1 or within 1 of
// its binade's top, negative f, non-finite values — steps the loop.
//
//cyclops:hotpath the fractional-packet carry of every TickRun piece; zero-alloc contract pinned by TestTickRunZeroAllocs and make alloc-check
func carryN(f, c float64, n int) (float64, int64) {
	var packets int64
	cb := math.Float64bits(c)
	s := 52 + 1023 - int(cb>>52) // log2 M; the sign bit makes it negative
	C := cb&(1<<52-1) | 1<<52
	if n <= 0 || !(f >= 0 && f <= math.MaxFloat64) || s < 0 || s > 52 || C+1<<s > 1<<53 {
		for ; n > 0; n-- {
			f, packets = carryStep(f, c, packets)
		}
		return f, packets
	}
	f, packets = carryStep(f, c, packets)
	F := uint64(f * float64(uint64(1)<<s))
	hi, lo := bits.Mul64(uint64(n-1), C)
	lo, cy := bits.Add64(lo, F, 0)
	hi += cy
	// The low 64 bits of (hi:lo) >> s: packets wrap as the loop's int64
	// adds do (hi << 64 is 0 in Go, so s = 0 is lo itself).
	packets += int64(hi<<(64-s) | lo>>s)
	F = lo & (1<<s - 1)
	return float64(F) / float64(uint64(1)<<s), packets
}

// carryStep is one step of Tick's fractional-packet carry.
func carryStep(f, c float64, packets int64) (float64, int64) {
	f += c
	if whole := math.Floor(f); whole > 0 {
		packets += int64(whole)
		f -= whole
	}
	return f, packets
}

func (s *Stream) flushWindow() {
	if s.curFrozen {
		// The window spent time in degraded mode: its accounting is
		// frozen, not measured-at-zero. Drop it rather than report a
		// throughput number the stream never observed.
		s.curFrozen = false
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
// Windows containing frozen ticks are dropped at rollover (Finish never
// reports them), and the link is treated as down so TCP re-ramps when
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
