// The hybrid and mmWave-only slot models: the corpus-scale counterparts
// of core.Run's RunOptions.Hybrid. The FSO side is the chaos slot model
// unchanged; the mmWave side is a two-constant caricature of
// baseline.MmWaveLink (a 3° beam shrugs off every head speed in the
// corpus, so only body blockage and its short MAC-level recovery matter);
// the policy.Controller between them is the same state machine the
// hardware path drives, fed one verdict per slot (a run of equal slots at
// a time).
package sim

import (
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/policy"
	"cyclops/internal/trace"
)

// MmWaveSlotParams parameterize the slot-model mmWave link.
type MmWaveSlotParams struct {
	// PeakGoodputGbps is the delivered rate while the link is up (the
	// 802.11ad single-carrier peak; the slot model does not grade the MCS
	// ladder — a beam this wide is either carrying or blocked).
	PeakGoodputGbps float64
	// BlockAttenDB is the physical-obstruction depth at or above which
	// the mmWave path counts as body-blocked. The haze component of a
	// fault schedule never blocks it — fog is transparent at 60 GHz.
	BlockAttenDB float64
	// Recovery is the MAC-level reconnect time after a blockage clears
	// (no optical re-lock; beam retraining plus association).
	Recovery time.Duration
}

// PaperMmWave returns the slot-model constants matching
// baseline.NewMmWave: the 4.6 Gbps 802.11ad peak, the 10 dB blocking
// threshold shared with PaperChaos25G, and the 30 ms stream recovery
// baseline.Run models.
func PaperMmWave() MmWaveSlotParams {
	return MmWaveSlotParams{
		PeakGoodputGbps: 4.6,
		BlockAttenDB:    10,
		Recovery:        30 * time.Millisecond,
	}
}

// HybridSlotParams parameterize a hybrid corpus arm.
type HybridSlotParams struct {
	// Policy tunes the failover hysteresis (zero fields: the policy
	// package defaults — 50 ms breach, 500 ms clear).
	Policy policy.Options
	// Secondary is the mmWave side (zero value: PaperMmWave()).
	Secondary MmWaveSlotParams
	// PrimaryGoodputGbps is the delivered rate while the FSO side carries
	// (zero: the 25G transceiver's 23.5 Gbps optimal goodput).
	PrimaryGoodputGbps float64
}

func (p *HybridSlotParams) defaults() {
	if p.Secondary == (MmWaveSlotParams{}) {
		p.Secondary = PaperMmWave()
	}
	if p.PrimaryGoodputGbps <= 0 {
		p.PrimaryGoodputGbps = 23.5
	}
}

// mmSlotState is the slot-model mmWave link: blocked while the physical
// obstruction is at depth, then down for the MAC recovery tail.
type mmSlotState struct {
	p            MmWaveSlotParams
	recoverUntil time.Duration
}

// step advances one slot and reports whether the mmWave link is up.
func (m *mmSlotState) step(at time.Duration, occlDB float64) bool {
	if m.p.BlockAttenDB > 0 && occlDB >= m.p.BlockAttenDB {
		m.recoverUntil = at + m.p.Recovery
		return false
	}
	return at >= m.recoverUntil
}

// hybridArm is the slot engine's secondary medium: the mmWave slot link
// steps beside the FSO model and the policy controller turns each slot's
// FSO verdict into the delivered one.
type hybridArm struct {
	hp  HybridSlotParams
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
	rate, off := h.hp.PrimaryGoodputGbps, fsoOff
	if h.ctl.ObserveRun(at, slot, n, !fsoOff).OnSecondary() {
		h.secondarySlots += n
		rate, off = h.hp.Secondary.PeakGoodputGbps, !mmUp
	}
	if !off {
		for ; n > 0; n-- {
			h.goodput += rate
		}
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
func SimulateTraceHybrid(tr trace.Trace, p ChaosParams, hp HybridSlotParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	hp.defaults()
	h := &hybridArm{hp: hp, ctl: policy.New(hp.Policy, policy.NewMetrics(reg)), mm: mmSlotState{p: hp.Secondary}}
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
func SimulateTraceMmWave(tr trace.Trace, p ChaosParams, mp MmWaveSlotParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	if mp == (MmWaveSlotParams{}) {
		mp = PaperMmWave()
	}
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}
	mm := mmSlotState{p: mp}
	cur := sched.Cursor()
	physDB := thresholdDB(mp.BlockAttenDB)
	end := tr.Duration()
	var fold frameFold
	wasBlocked := false
	var goodputSum float64
	for at := time.Duration(0); at < end; {
		fs := cur.At(at)
		occl := fs.AttenDB - fs.HazeDB
		up := mm.step(at, occl)
		if blocked := mp.BlockAttenDB > 0 && occl >= mp.BlockAttenDB; blocked {
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
		horizon := bound(min(end, cur.UntilVerdict(math.Inf(1), physDB)), mm.recoverUntil, at)
		n := int((horizon-at-1)/p.Slot) + 1
		if n > 1 {
			mm.step(at+time.Duration(n-1)*p.Slot, occl)
		}
		if up {
			for i := 0; i < n; i++ {
				goodputSum += mp.PeakGoodputGbps
			}
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
