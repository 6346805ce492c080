package sim

import (
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
	"cyclops/internal/xrand"
)

// ChaosParams extend the §5.4 slot model with the fault-injection
// vocabulary of internal/fault: how deep an occlusion must be to sever the
// link, and how long the transceiver takes to re-lock once light returns.
type ChaosParams struct {
	AvailabilityParams
	// BlockAttenDB is the occlusion depth (dB) at or above which the slot
	// model treats the beam as blocked. Shallower occlusions eat margin on
	// the hardware plant but keep the slot model's link alive.
	BlockAttenDB float64
	// Relock is the SFP re-lock time after an occlusion clears: the link
	// stays down that long past the fault window's end, mirroring
	// link.Monitor's RelockDelay.
	Relock time.Duration
	// TXCount is the number of ceiling transmitters serving the headset.
	// At most one transmits; the others hold pre-pointed mirror solutions
	// (make-before-break, mirroring core.Run's Handover path). Zero or
	// one: the historical single-TX model, bit for bit.
	TXCount int
	// HandoverDark is the dark time a rescued occlusion episode costs —
	// the ~2 ms realignment slew to the standby instead of the occlusion
	// plus the Relock tail (default 2 ms when TXCount > 1).
	HandoverDark time.Duration
	// StandbyBlockProb is the probability that a given standby path is
	// also blocked by the same occlusion event (each standby draws
	// independently; StandbyBlockProbForSpacing derives it from ceiling
	// placement). An episode with every standby blocked is not rescued
	// and pays the full single-TX cost.
	StandbyBlockProb float64
}

// StandbyBlockProbForSpacing estimates StandbyBlockProb from ceiling
// geometry with a sector-overlap model: the occluder (a torso/arm at
// roughly arm's length, 0.35 m across at 1 m) shadows an angular sector of
// half-angle h around the primary path as seen from the headset; a standby
// whose beam arrives θ = 2·atan(spacing / (2·1.75)) away (1.75 m is the
// nominal ceiling-to-headset height) escapes the shadow when θ exceeds the
// sector. The 2% floor models body-scale events that shadow the whole
// ceiling at once.
func StandbyBlockProbForSpacing(spacing float64) float64 {
	const floorProb = 0.02
	h := math.Atan2(0.35, 1.0)
	theta := 2 * math.Atan2(spacing/2, 1.75)
	if theta >= 2*h {
		return floorProb
	}
	p := (2*h - theta) / (2 * h)
	if p < floorProb {
		p = floorProb
	}
	return p
}

// PaperChaos25G returns Paper25G plus the chaos constants: a 10 dB
// blocking threshold (the 25G budget's full margin) and the transceiver
// config's 3 s re-lock.
func PaperChaos25G() ChaosParams {
	return ChaosParams{
		AvailabilityParams: Paper25G(),
		BlockAttenDB:       10,
		Relock:             3 * time.Second,
	}
}

// ChaosTraceResult is the per-trace chaos outcome: the base availability
// result plus the outage bookkeeping the supervisor tracks on the hardware
// path.
type ChaosTraceResult struct {
	TraceResult
	// Outages counts blocked episodes (occlusion plus its re-lock tail)
	// the trace suffered.
	Outages int
	// BlockedSlots counts slots lost to those episodes (a subset of
	// OffSlots; the rest are ordinary misalignment).
	BlockedSlots int
	// Handovers counts occlusion episodes rescued by a switch to a clear
	// standby TX (TXCount > 1 only): those cost HandoverDark of blocked
	// time instead of an outage.
	Handovers int
	// Failovers / Readmits / SecondarySlots / MinSecondaryDwell are the
	// hybrid link policy's bookkeeping (SimulateTraceHybrid only; zero on
	// every other path): medium switches, time delivered traffic rode the
	// mmWave secondary, and the shortest completed secondary dwell.
	Failovers         int
	Readmits          int
	SecondarySlots    int
	MinSecondaryDwell time.Duration
	// MeanGoodputGbps is the delivered goodput averaged over all slots
	// (hybrid and mmWave-only arms; zero on the plain FSO paths, which
	// report availability only).
	MeanGoodputGbps float64
}

// SimulateTraceChaosRuns runs the slot model over one trace with the
// given fault schedule injected. The base drift/realign machinery matches
// SimulateTrace slot for slot; on top of it:
//
//   - an occlusion window at or above BlockAttenDB severs the link for its
//     duration plus the Relock tail — those slots are off regardless of
//     pointing state;
//   - a tracker blackout (or an injected solver divergence) at a report's
//     arrival swallows that report: no realignment is scheduled and the
//     drift rates keep their last value;
//   - a stuck galvo at a realignment's completion turns it into a no-op —
//     the mirrors never moved, so the accumulated offsets stand.
//
// sink(from, n, off), when non-nil, receives the slots' final
// connectivity verdicts (off covers both misalignment and blocking) in
// runs, in slot order: the n slots from slot index from share verdict
// off. The runs tile the trace's slots; adjacent runs may share a
// verdict. The arena engine replays per-user connectivity through its
// shared-backhaul contention pass this way, one netem tick run per
// verdict run and backhaul share.
//
// A nil or empty schedule reproduces SimulateTrace's Slots/OffSlots
// exactly. Outage metrics are recorded into reg under the same names the
// hardware supervisor uses (cyclops_outage_total,
// cyclops_reacquire_seconds), so both fault paths expose identically.
func SimulateTraceChaosRuns(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry, sink func(from, n int, off bool)) ChaosTraceResult {
	return simulateChaos(tr, p, sched, reg, slotArms{sink: sink})
}

// SimulateTraceChaosSlots is SimulateTraceChaosRuns with the verdict runs
// expanded into slots: sink(slot, off), when non-nil, fires once per
// simulated slot, in slot order.
//
//cyclops:keep perfbench replays the arena's per-slot contention pass through it
func SimulateTraceChaosSlots(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry, sink func(slot int, off bool)) ChaosTraceResult {
	var runs func(from, n int, off bool)
	if sink != nil {
		runs = func(from, n int, off bool) {
			for i := 0; i < n; i++ {
				sink(from+i, off)
			}
		}
	}
	return SimulateTraceChaosRuns(tr, p, sched, reg, runs)
}

// simulateChaos runs the slot engine with a fault schedule and the outage
// (and, with standby TXs, handover) instruments registered in reg, then
// records the FSO side's per-trace metrics.
func simulateChaos(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry, arms slotArms) ChaosTraceResult {
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	}
	arms.sched = sched
	arms.om = fault.NewOutageMetrics(reg)
	if p.TXCount > 1 {
		arms.hm = fault.NewHandoverMetrics(reg)
	}
	res := simulate(tr, p, arms)
	fsoOff, fsoOn := res.OffSlots, res.OnFraction
	if h := arms.hybrid; h != nil && res.Slots > 0 {
		fsoOff = h.fsoOff
		fsoOn = 1 - float64(fsoOff)/float64(res.Slots)
	}
	recordTrace(reg, res.Slots, fsoOff, fsoOn)
	return res
}

// blockState is the slot engine's blocked-episode bookkeeping: an
// occlusion at or above BlockAttenDB severs the link, and the link stays
// down for the Relock tail after it clears. With standby TXs, each
// occlusion episode draws whether any standby path escaped the same
// event: a rescued episode costs HandoverDark of blocked slots (the
// make-before-break slew) and no re-lock tail; an unrescued one pays the
// full single-TX cost.
type blockState struct {
	// p carries the blocking threshold, re-lock, standby count and
	// rescue probability; HandoverDark is defaulted to 2 ms.
	p  ChaosParams
	om *fault.OutageMetrics
	hm *fault.HandoverMetrics
	// rng is the rescue stream: per trace, derived from the schedule's
	// seed, with a fixed per-episode consumption pattern (one draw per
	// standby, every episode), so any worker count replays it bit for bit.
	// nil without standbys or faults; else the caller's stack-held value.
	rng *xrand.Rand

	relockUntil                time.Duration
	wasBlocked, inOcc, rescued bool
	blockedRescued             bool
	blockedSince, hoUntil      time.Duration
}

func newBlockState(p ChaosParams, arms slotArms, faults bool, rng *xrand.Rand) blockState {
	if p.HandoverDark <= 0 {
		p.HandoverDark = 2 * time.Millisecond
	}
	b := blockState{p: p, om: arms.om, hm: arms.hm, relockUntil: -1}
	if p.TXCount > 1 && faults {
		rng.Seed(arms.sched.Seed*9176 + 13)
		b.rng = rng
	}
	return b
}

// until lowers horizon to the first instant after at, the slot just
// stepped, from which a slot at the same occlusion depth may block
// differently: the end of a handover's dark time or of the re-lock tail.
func (b *blockState) until(at, horizon time.Duration) time.Duration {
	return bound(bound(horizon, b.hoUntil, at), b.relockUntil, at)
}

// step advances one slot at occlusion depth attenDB and reports whether
// the slot is blocked, counting handovers and outages into res.
func (b *blockState) step(at time.Duration, attenDB float64, res *ChaosTraceResult) bool {
	occluded := attenDB >= b.p.BlockAttenDB && b.p.BlockAttenDB > 0
	if occluded && !b.inOcc {
		b.inOcc = true
		b.rescued = false
		if b.rng != nil {
			// One draw per standby on every episode, rescued or not, so
			// the stream's consumption pattern is fixed.
			for k := 1; k < b.p.TXCount; k++ {
				if b.rng.Float64() >= b.p.StandbyBlockProb {
					b.rescued = true
				}
			}
			if b.rescued {
				b.hoUntil = at + b.p.HandoverDark
				res.Handovers++
				if b.hm != nil {
					b.hm.Handovers.Inc()
					b.hm.Dark.Observe(b.p.HandoverDark.Seconds())
				}
			}
		}
	} else if !occluded {
		b.inOcc = false
	}
	sever := occluded && !(b.rescued && at >= b.hoUntil)
	if sever && !b.rescued {
		b.relockUntil = at + b.p.Relock
	}
	blocked := sever || (b.relockUntil >= 0 && at < b.relockUntil)
	if blocked && !b.wasBlocked {
		b.blockedSince = at
		b.blockedRescued = b.rescued
		if !b.rescued {
			// A rescued episode is a handover, not an outage: the
			// transceiver's holdover rides the switch, so neither
			// cyclops_outage_total nor the re-lock histogram sees it.
			res.Outages++
			if b.om != nil {
				b.om.Outages.Inc()
			}
		}
	}
	if !blocked && b.wasBlocked && !b.blockedRescued && b.om != nil {
		b.om.Reacquire.Observe((at - b.blockedSince).Seconds())
	}
	b.wasBlocked = blocked
	return blocked
}
