// Package sim implements the §5.4 trace-driven availability simulation:
// the paper's own methodology for evaluating the 25 Gbps prototype against
// 500 one-minute head-motion traces without wearing the (too bulky) rig.
//
// The model divides time into 1 ms slots. Whenever a head position report
// arrives (every ~10 ms in the dataset), the TP mechanism realigns within
// the realignment latency, leaving the link with the TP residual error;
// between reports the terminal drifts laterally and angularly at the rate
// implied by consecutive reports. A slot is disconnected when the total
// lateral or angular offset exceeds the link's movement tolerance.
package sim

import (
	"fmt"
	"math"
	"time"

	"cyclops/internal/baseline"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
	"cyclops/internal/xrand"
)

// AvailabilityParams are the §5.4 simulation constants.
type AvailabilityParams struct {
	// Slot is the simulation timeslot (1 ms in the paper).
	Slot time.Duration
	// RealignLatency is the TP latency after each report (1–2 ms; the
	// paper's simulation uses the upper end conservatively).
	RealignLatency time.Duration
	// LateralTolerance and AngularTolerance are the link's movement
	// tolerances (6 mm / 8.73 mrad for the 25G design).
	LateralTolerance float64 // meters
	AngularTolerance float64 // radians
	// TPLateralError and TPAngularError are the residual misalignments
	// right after a realignment (the combined model errors of Table 2:
	// 4.54 mm lateral, 4.54 mm over the 1.75 m link ≈ 2.6 mrad angular).
	TPLateralError float64 // meters
	TPAngularError float64 // radians
}

// Paper25G returns the §5.4 constants exactly as the paper states them:
// 8.73 mrad / 6 mm tolerances, TP error 4.54 mm and 4.54/1750 rad, 1–2 ms
// realignment (we use 2 ms).
func Paper25G() AvailabilityParams {
	return AvailabilityParams{
		Slot:             time.Millisecond,
		RealignLatency:   2 * time.Millisecond,
		LateralTolerance: 6e-3,
		AngularTolerance: 8.73e-3,
		TPLateralError:   4.54e-3,
		TPAngularError:   4.54e-3 / 1.75,
	}
}

// TraceResult is the per-trace outcome.
type TraceResult struct {
	ID         string
	Slots      int
	OffSlots   int
	OnFraction float64
	// FrameHistogram buckets 30-slot frames by their off-slot count:
	// FrameHistogram[k] frames had exactly k off slots (k in 0..30).
	FrameHistogram [31]int
}

// ScatteredOffFraction returns the fraction of off-slots that fall in
// frames with fewer than threshold off-slots — the paper's user-experience
// metric (">60% of off-timeslots occur in frames with less than 10").
func (r TraceResult) ScatteredOffFraction(threshold int) float64 {
	if r.OffSlots == 0 {
		return 0
	}
	var scattered int
	for k := 0; k < threshold && k < len(r.FrameHistogram); k++ {
		scattered += k * r.FrameHistogram[k]
	}
	return float64(scattered) / float64(r.OffSlots)
}

// simBlock is the number of reports whose drift steps the slot engine
// precomputes per batch (4 KB of stack). See the block comment at the
// fill site for why batching pays.
const simBlock = 256

// SimulateTrace runs the §5.4 slot model over one trace.
func SimulateTrace(tr trace.Trace, p AvailabilityParams) TraceResult {
	return simulate(tr, ChaosParams{AvailabilityParams: p}, slotArms{}).TraceResult
}

// slotArms are the slot engine's optional arms. The zero value is the
// clean §5.4 model, which runs through the same slot loop as every armed
// combination: with no fault schedule the blocking arm never fires, and
// without a hybrid arm nothing bounds a run short of the trace end. The
// sink only observes runs; it never bounds one.
type slotArms struct {
	// sched injects faults (nil or empty: none). Occlusions block the link
	// (with standby rescue when ChaosParams.TXCount > 1), tracker
	// blackouts and solver divergences swallow reports, a stuck galvo
	// voids realignments.
	sched *fault.Schedule
	// om and hm receive the outage and handover instruments (nil: off).
	om *fault.OutageMetrics
	hm *fault.HandoverMetrics
	// hybrid is the mmWave secondary behind the link policy (nil: FSO
	// only). When set, the result's availability fields and the sink see
	// the delivered verdict.
	hybrid *hybridArm
	// sink receives the final verdicts in runs, in slot order: n slots
	// from slot index from share verdict off. Two adjacent runs may carry
	// the same verdict.
	sink func(from, n int, off bool)
}

// deliver applies one verdict to the n slots from at: the blocked-slot
// count, the hybrid arm (whose delivered verdict replaces fsoOff), the
// sink, once per run, and the frame fold.
func (a *slotArms) deliver(res *ChaosTraceResult, fold *frameFold, at, slot time.Duration, n int, fs fault.State, blocked, fsoOff bool) {
	if blocked {
		res.BlockedSlots += n
	}
	off := fsoOff
	if a.hybrid != nil {
		off = a.hybrid.run(at, slot, n, fs, fsoOff)
	}
	if a.sink != nil {
		a.sink(fold.slots, n, off)
	}
	fold.addRun(n, off)
}

// thresholdDB is the UntilVerdict threshold of an arm that blocks at or
// above db when db is positive and never otherwise.
func thresholdDB(db float64) float64 {
	if db > 0 {
		return db
	}
	return math.Inf(1)
}

// bound lowers horizon to t when t lies after at.
func bound(horizon, t, at time.Duration) time.Duration {
	if t > at && t < horizon {
		return t
	}
	return horizon
}

// simulate is the slot engine: the one FSO slot loop behind SimulateTrace,
// SimulateTraceChaosRuns and SimulateTraceHybrid. It reads the fault
// state through a monotone cursor once per run of slots.
func simulate(tr trace.Trace, p ChaosParams, arms slotArms) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}

	// Current drift state: offsets at the start of the current slot.
	lat := p.TPLateralError
	ang := p.TPAngularError

	// Drift rates between the last pair of reports (per second), and the
	// per-slot increments they imply. The increments are computed once
	// when the rates change — rate*slotSec is the identical product the
	// per-slot multiply used to produce, so the accumulated offsets stay
	// bit-identical while the 1 ms loop sheds two multiplies (and the
	// Duration.Seconds conversion, ~5 % of the corpus run) per slot.
	var latStep, angStep float64
	slotSec := p.Slot.Seconds()

	samples := tr.Samples
	nextReportIdx := 1
	var realignAt time.Duration = -1

	end := tr.Duration()
	var fold frameFold
	tolLat, tolAng := p.LateralTolerance, p.AngularTolerance

	// The per-report drift steps are pure functions of the sample pairs,
	// independent across reports, so they are precomputed in blocks of
	// simBlock reports ahead of the event loop. Batching keeps the
	// normalize→distance→angle chains (each a long serial float
	// dependency ending in an Acos polynomial) adjacent, letting the
	// out-of-order core overlap consecutive reports instead of paying
	// each chain's full latency between slot segments. Every step value
	// is computed by the same operations in the same order as the inline
	// form, so the accumulated offsets are bit-identical
	// (TestSimulateTraceMatchesReference).
	//
	// prevN is the normalized orientation of the previous report, reused
	// as the a side of the next pair (each report is the b of one pair
	// and the a of the next): one normalization per report instead of
	// two. lastGap/lastDt memoize the report-spacing conversion — in the
	// corpus the gap is a constant 10 ms, so Duration.Seconds (two
	// integer divides) runs once instead of once per report. Both are
	// pure, so the cached values are exactly the recomputed ones.
	var latStepC, angStepC [simBlock]float64
	stepLo, stepHi := 1, 1 // report index range cached in latStepC/angStepC
	prevN := samples[0].Pose.Rot.Normalize()
	prevNIdx := 0
	lastGap := time.Duration(math.MinInt64)
	var lastDt float64
	// Steps persist across dt ≤ 0 reports (a malformed pair keeps the
	// previous rates), so the fill carries the last computed values. That
	// is also the last *applied* step when a fault swallows reports: a
	// dt ≤ 0 report arrives in the same slot as its predecessor, so both
	// share one swallow verdict.
	var carryLat, carryAng float64
	fillSteps := func(lo int) {
		hi := lo + simBlock
		if hi > len(samples) {
			hi = len(samples)
		}
		for j := lo; j < hi; j++ {
			a, b := &samples[j-1], &samples[j]
			if gap := b.At - a.At; gap != lastGap {
				lastGap, lastDt = gap, gap.Seconds()
			}
			if dt := lastDt; dt > 0 {
				if prevNIdx != j-1 {
					prevN = a.Pose.Rot.Normalize()
				}
				bN := b.Pose.Rot.Normalize()
				dLin := a.Pose.Trans.Dist(b.Pose.Trans)
				dAng := geom.AngleBetweenNormalized(prevN, bN)
				prevN, prevNIdx = bN, j
				latRate := dLin / dt
				angRate := dAng / dt
				carryLat = latRate * slotSec
				carryAng = angRate * slotSec
			}
			latStepC[j-lo] = carryLat
			angStepC[j-lo] = carryAng
		}
		stepLo, stepHi = lo, hi
	}

	// The fault arms. fs is the fault state of the slot at hand: the
	// cursor holds it, up to the attenuation within the two blocking
	// verdicts the arms read, constant until fsUntil, so it is read again
	// only at the first run head at or past that instant. Without a
	// schedule fs stays zero, fsUntil never comes and every fault branch
	// below is dead.
	faults := !arms.sched.Empty()
	cur := arms.sched.Cursor()
	var fs fault.State
	fsUntil := time.Duration(math.MaxInt64)
	if faults {
		fsUntil = 0
	}
	blockDB, physDB := thresholdDB(p.BlockAttenDB), math.Inf(1)
	if arms.hybrid != nil {
		physDB = baseline.BlockAttenDB
	}
	var rescue xrand.Rand // the rescue stream, off the heap
	blk := newBlockState(p, arms, faults, &rescue)

	// The open run: its head slot is stepped, n slots from runAt
	// follow it in bulk with the head's verdicts (blocked, fsoOff), and
	// none of them may reach horizon.
	var (
		open            bool
		runAt, horizon  time.Duration
		n               int
		blocked, fsoOff bool
	)

	// The loop is event-driven: all state changes (rate updates,
	// realignments) happen at report arrivals or realignment
	// completions, so between events the 1 ms slots run in a tight inner
	// loop with nothing but the connectivity check and the drift adds.
	// Slot-for-slot this visits the same states in the same order as the
	// straightforward check-every-slot loop. Event handling reads the
	// fault state of the segment's head slot: the first slot at or after
	// the report or realignment time.
	for at := time.Duration(0); at < end; {
		if at >= fsUntil {
			fs, fsUntil = cur.At(at), cur.UntilVerdict(blockDB, physDB)
		}

		// Report arrival: schedule a realignment and update drift
		// rates from the new report pair. Realignments pipeline: one
		// that was due to complete before a newer report arrives takes
		// effect first rather than being silently superseded (a
		// tracker faster than the realign latency must not starve the
		// mirrors). A stuck galvo voids the realignment — the mirrors
		// never moved, so the offsets stand — and a tracker blackout or
		// solver divergence swallows the report: no realignment, and the
		// drift rates keep their last value.
		for nextReportIdx < len(samples) && samples[nextReportIdx].At <= at {
			b := &samples[nextReportIdx]
			if realignAt >= 0 && b.At >= realignAt {
				if !fs.GalvoStuck {
					lat = p.TPLateralError
					ang = p.TPAngularError
				}
				realignAt = -1
			}
			if fs.TrackerBlackout || fs.SolverDiverge {
				nextReportIdx++
				continue
			}
			if nextReportIdx >= stepHi {
				fillSteps(nextReportIdx)
			}
			latStep = latStepC[nextReportIdx-stepLo]
			angStep = angStepC[nextReportIdx-stepLo]
			realignAt = b.At + p.RealignLatency
			nextReportIdx++
		}

		// Realignment completes: residual TP error only.
		if realignAt >= 0 && at >= realignAt {
			if !fs.GalvoStuck {
				lat = p.TPLateralError
				ang = p.TPAngularError
			}
			realignAt = -1
		}

		// Run slots up to (but not including) the next event. After the
		// event handling above, the next report strictly follows at and
		// any pending realignment completes strictly after at, so the
		// inner loop always advances.
		limit := end
		if nextReportIdx < len(samples) && samples[nextReportIdx].At < limit {
			limit = samples[nextReportIdx].At
		}
		if realignAt >= 0 && realignAt < limit {
			limit = realignAt
		}

		// Slots advance in runs over which the fault verdicts, every
		// arm's discrete state and the FSO verdict hold still. The head
		// slot of a run steps every arm, so episode edges, rescue draws,
		// policy transitions and metric edges all happen there. The slots
		// after it repeat its verdicts in bulk up to the earliest horizon
		// (fault verdict change, dark-time or re-lock end, mmWave
		// recovery, policy deadline, trace end) or the first slot whose
		// FSO verdict differs. Report and realign edges do not end a run:
		// their handling reads only fault booleans, constant before the
		// horizon, and moves only the drift offsets, which the verdict
		// check follows. The drift offsets still add once per slot in the
		// verdict scan; the goodput sums take a run's adds at once through
		// xmath.AddN, which returns the per-slot sum bit for bit. A clean
		// trace (no schedule, no hybrid arm) never blocks and has no
		// horizon before end, so its runs end only at verdict flips and
		// cover each all-on stretch in one fold. The sink sees each run
		// once, as the frame fold does.
		for at < limit {
			if !open {
				blocked = blk.step(at, fs.AttenDB, &res)
				fsoOff = blocked || lat > tolLat || ang > tolAng
				arms.deliver(&res, &fold, at, p.Slot, 1, fs, blocked, fsoOff)
				lat += latStep
				ang += angStep
				head := at
				at += p.Slot
				horizon = blk.until(head, min(end, fsUntil))
				if h := arms.hybrid; h != nil {
					horizon = h.until(head, horizon)
				}
				open, runAt, n = true, at, 0
			}
			// The offsets never decrease within a segment, so the
			// verdict flips at most once per segment: the scan runs the
			// drift adds the per-slot loop would and stops at the first
			// slot that disagrees with the run.
			for stop := min(limit, horizon); at < stop && (blocked || lat > tolLat || ang > tolAng) == fsoOff; at += p.Slot {
				lat += latStep
				ang += angStep
				n++
			}
			if at >= limit && at < horizon {
				break // the run stays open across the event
			}
			// No edge falls inside a run: stepping its last slot leaves
			// the re-lock deadline where n steps would.
			if n > 0 {
				blk.step(at-p.Slot, fs.AttenDB, &res)
				arms.deliver(&res, &fold, runAt, p.Slot, n, fs, blocked, fsoOff)
			}
			open = false
			if at >= fsUntil {
				fs, fsUntil = cur.At(at), cur.UntilVerdict(blockDB, physDB)
			}
		}
	}
	fold.finish(&res.TraceResult)
	return res
}

// frameFold is the slot count and 30-slot frame histogram the slot loop
// folds its verdicts into: FrameHistogram[k] counts frames with exactly k
// off slots, the trailing partial frame included.
type frameFold struct {
	slots, offSlots   int
	inFrame, frameOff int
	hist              [31]int
}

// addRun folds n consecutive slots with one verdict in O(1): the run
// fills the open frame, completes total/30 − 1 whole frames of its own
// verdict (all off: hist[30]; all on: hist[0]) and leaves the remainder
// open, exactly as n one-slot folds would (TestFrameFoldAddRunMatchesAdd
// checks it against the per-slot oracle frameFold.add).
func (f *frameFold) addRun(n int, off bool) {
	per := 0 // off slots per slot of the run
	if off {
		per = 1
	}
	f.slots += n
	f.offSlots += per * n
	total := f.inFrame + n
	if total < 30 {
		f.inFrame = total
		f.frameOff += per * n
		return
	}
	f.hist[f.frameOff+per*(30-f.inFrame)]++
	f.hist[30*per] += total/30 - 1
	f.inFrame = total % 30
	f.frameOff = per * f.inFrame
}

// finish closes the trailing partial frame and writes the availability
// fields.
func (f *frameFold) finish(r *TraceResult) {
	if f.inFrame > 0 {
		f.hist[f.frameOff]++
	}
	r.Slots, r.OffSlots, r.FrameHistogram = f.slots, f.offSlots, f.hist
	if r.Slots > 0 {
		r.OnFraction = 1 - float64(r.OffSlots)/float64(r.Slots)
	}
}

// SimulateTraceObs is SimulateTrace with observability: the per-trace
// aggregates (slots, off slots, off-fraction distribution) are recorded
// into reg. Recording happens once per trace — never per slot — so the
// hot loop's cost is untouched.
func SimulateTraceObs(tr trace.Trace, p AvailabilityParams, reg *obs.Registry) TraceResult {
	res := SimulateTrace(tr, p)
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}

// recordTrace is the single registering call site for the per-trace sim
// metrics — the clean (SimulateTraceObs) and chaos
// (SimulateTraceChaosRuns) paths feed the same series, so a corpus mixing the
// two still merges into one exposition.
func recordTrace(reg *obs.Registry, slots, offSlots int, onFraction float64) {
	if reg == nil {
		return
	}
	reg.Counter("cyclops_sim_traces_total",
		"Head-motion traces run through the 5.4 slot model.").Inc()
	reg.Counter("cyclops_sim_slots_total",
		"1 ms availability slots simulated.").Add(float64(slots))
	reg.Counter("cyclops_sim_off_slots_total",
		"Slots with the link disconnected.").Add(float64(offSlots))
	reg.Histogram("cyclops_sim_trace_off_fraction",
		"Per-trace disconnected fraction (the Fig 16 CDF's underlying distribution).",
		[]float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}).
		Observe(1 - onFraction)
}

// CorpusResult aggregates a full dataset run — the data behind Fig 16.
type CorpusResult struct {
	PerTrace []TraceResult
	// MeanOnFraction is the operational fraction across all traces'
	// slots (the paper's 98.6 %).
	MeanOnFraction float64
	// MinOnFraction / MaxOnFraction bound the per-trace spread (95 % to
	// 99.98 % in the paper).
	MinOnFraction, MaxOnFraction float64
	// Metrics is the corpus's observability snapshot: each worker's
	// traces record into the worker's one registry, drained into the
	// shard's aggregate after every trace (obs.Registry.DrainInto), and
	// the shards reduce serially in index order — byte-identical for any
	// worker count, like every other field here.
	Metrics obs.Snapshot
}

func (c CorpusResult) String() string {
	return fmt.Sprintf("corpus: mean on %.2f%%, range %.2f%%-%.2f%% over %d traces",
		c.MeanOnFraction*100, c.MinOnFraction*100, c.MaxOnFraction*100, len(c.PerTrace))
}

// DisconnectionCDF returns the cumulative distribution of per-trace
// disconnected percentage: point (x[i], y[i]) means a fraction y[i] of
// traces were disconnected for at most x[i] percent of their slots — the
// Fig 16 curve.
func (c CorpusResult) DisconnectionCDF(points int) (xs, ys []float64) {
	if points < 2 || len(c.PerTrace) == 0 {
		return nil, nil
	}
	var maxOff float64
	offs := make([]float64, len(c.PerTrace))
	for i, r := range c.PerTrace {
		offs[i] = (1 - r.OnFraction) * 100
		if offs[i] > maxOff {
			maxOff = offs[i]
		}
	}
	for k := 0; k < points; k++ {
		x := maxOff * float64(k) / float64(points-1)
		count := 0
		for _, o := range offs {
			if o <= x {
				count++
			}
		}
		xs = append(xs, x)
		ys = append(ys, float64(count)/float64(len(offs)))
	}
	return xs, ys
}
