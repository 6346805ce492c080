// The hybrid and mmWave-only slot models: the corpus-scale counterparts
// of core.Run's RunOptions.Hybrid. The FSO side is the chaos slot model
// unchanged; the mmWave side is a three-constant caricature of
// baseline.MmWaveLink (a 3° beam shrugs off every head speed in the
// corpus, so only body blockage and its short MAC-level recovery matter);
// the policy.Controller between them is the same state machine the
// hardware path drives, fed one verdict per slot (a run of equal slots at
// a time).
package sim

import (
	"math"
	"time"

	"cyclops/internal/baseline"
	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/policy"
	"cyclops/internal/trace"
	"cyclops/internal/xmath"
)

// MmWaveSlotParams selects the mmWave-only corpus arm
// (CorpusChaos.MmWaveOnly). Setting the pointer arms it; it has no
// tuning: the slot link delivers baseline.PeakGoodputGbps while up,
// counts as body-blocked while the physical obstruction is at or above
// baseline.BlockAttenDB (the haze component of a fault schedule never
// blocks it — fog is transparent at 60 GHz), and reconnects
// baseline.MACRecovery after a blockage clears. The slot model does not
// grade the MCS ladder: a beam this wide is either carrying or blocked.
type MmWaveSlotParams struct{}

// HybridSlotParams selects the hybrid corpus arm (CorpusChaos.Hybrid).
// Setting the pointer arms it; it has no tuning: the FSO primary
// delivers the 25G transceiver's optics.SFP28LR.OptimalGoodputGbps, the
// secondary is the mmWave slot link of MmWaveSlotParams, and the policy
// runs at policy.BreachAfter and policy.ClearAfter.
type HybridSlotParams struct{}

// mmSlotState is the slot-model mmWave link: blocked while the physical
// obstruction is at depth, then down for the MAC recovery tail.
type mmSlotState struct {
	recoverUntil time.Duration
}

// step advances one slot and reports whether the mmWave link is up.
func (m *mmSlotState) step(at time.Duration, occlDB float64) bool {
	if occlDB >= baseline.BlockAttenDB {
		m.recoverUntil = at + baseline.MACRecovery
		return false
	}
	return at >= m.recoverUntil
}

// hybridArm is the slot engine's secondary medium: the mmWave slot link
// steps beside the FSO model and the policy controller turns each slot's
// FSO verdict into the delivered one.
type hybridArm struct {
	ctl *policy.Controller
	mm  mmSlotState
	// fsoOff counts the FSO side's off slots; secondarySlots and goodput
	// total the delivered stream.
	fsoOff, secondarySlots int
	goodput                float64
}

// run advances the n slots from at, all with fault state fs and FSO
// verdict fsoOff, and returns the delivered verdict (whichever medium the
// policy has carrying). For n > 1 the caller bounds the run by until, so
// neither the mmWave link nor the policy moves after the first slot: the
// last slot's mmWave step and one ObserveRun stand in for n single steps.
func (h *hybridArm) run(at, slot time.Duration, n int, fs fault.State, fsoOff bool) bool {
	if fsoOff {
		h.fsoOff += n
	}
	mmUp := h.mm.step(at+time.Duration(n-1)*slot, fs.AttenDB-fs.HazeDB)
	rate, off := optics.SFP28LR.OptimalGoodputGbps, fsoOff
	if h.ctl.ObserveRun(at, slot, n, !fsoOff).OnSecondary() {
		h.secondarySlots += n
		rate, off = baseline.PeakGoodputGbps, !mmUp
	}
	if !off {
		h.goodput = xmath.AddN(h.goodput, rate, n)
	}
	return off
}

// until lowers horizon to the first instant after at, the slot just run,
// from which the mmWave link or the policy may move under the same
// inputs: the end of the MAC recovery tail or the policy's deadline.
func (h *hybridArm) until(at, horizon time.Duration) time.Duration {
	return bound(bound(horizon, h.mm.recoverUntil, at), h.ctl.Deadline(), at)
}

// SimulateTraceHybrid runs the hybrid link policy over one trace: the FSO
// chaos slot model and the mmWave slot link advance together, the policy
// controller watches the FSO verdict slot by slot, and the returned
// result's availability fields (OffSlots, OnFraction, FrameHistogram) are
// rebuilt for the *delivered* stream — whichever medium the policy had
// carrying each slot. Outages and BlockedSlots keep the FSO side's
// bookkeeping (the episodes the policy routed around), as do the
// cyclops_sim_* and cyclops_outage_* metrics recorded into reg; the
// delivered story is in the result and the cyclops_policy_* instruments.
// The HybridSlotParams argument only names the arm; it has no fields.
func SimulateTraceHybrid(tr trace.Trace, p ChaosParams, _ HybridSlotParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	h := &hybridArm{ctl: policy.New(policy.NewMetrics(reg))}
	res := simulateChaos(tr, p, sched, reg, slotArms{hybrid: h})
	if res.Slots == 0 {
		return res
	}
	res.MeanGoodputGbps = h.goodput / float64(res.Slots)
	res.Failovers = h.ctl.Failovers()
	res.Readmits = h.ctl.Readmits()
	res.SecondarySlots = h.secondarySlots
	res.MinSecondaryDwell = h.ctl.MinSecondaryDwell()
	return res
}

// SimulateTraceMmWave runs the mmWave-only arm over one trace: no FSO
// model at all — the slot link is up except while a physical obstruction
// (the fault schedule's non-haze attenuation) is at blocking depth or its
// MAC recovery tail is running. Misalignment never costs a slot (a 3°
// beam tolerates the whole corpus), so every off slot is a BlockedSlot
// and every blockage episode an Outage. Records cyclops_sim_* into reg.
//
// It keeps its own short loop rather than running the slot engine with
// the FSO primary forced down: the policy's breach window would cost the
// first slots of every trace, and its Outages count mmWave blockage
// edges, not FSO episodes. It shares the engine's fault cursor, the
// mmWave slot link and the frame fold, and steps the same runs: the head
// slot reads the cursor, the rest up to its UntilVerdict and the recovery
// tail's end follow in bulk.
func SimulateTraceMmWave(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}
	var mm mmSlotState
	cur := sched.Cursor()
	end := tr.Duration()
	var fold frameFold
	wasBlocked := false
	var goodputSum float64
	for at := time.Duration(0); at < end; {
		fs := cur.At(at)
		occl := fs.AttenDB - fs.HazeDB
		up := mm.step(at, occl)
		if blocked := occl >= baseline.BlockAttenDB; blocked {
			if !wasBlocked {
				res.Outages++
			}
			wasBlocked = true
		} else {
			wasBlocked = false
		}
		// The slots before the blocking verdict or another fault field
		// changes and before the recovery tail ends repeat this one;
		// stepping the last of them leaves the recovery deadline where n
		// steps would.
		horizon := bound(min(end, cur.UntilVerdict(math.Inf(1), baseline.BlockAttenDB)), mm.recoverUntil, at)
		n := int((horizon-at-1)/p.Slot) + 1
		if n > 1 {
			mm.step(at+time.Duration(n-1)*p.Slot, occl)
		}
		if up {
			goodputSum = xmath.AddN(goodputSum, baseline.PeakGoodputGbps, n)
		} else {
			res.BlockedSlots += n
		}
		fold.addRun(n, !up)
		at += time.Duration(n) * p.Slot
	}
	fold.finish(&res.TraceResult)
	if res.Slots > 0 {
		res.MeanGoodputGbps = goodputSum / float64(res.Slots)
	}
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}
