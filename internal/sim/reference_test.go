package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/policy"
	"cyclops/internal/trace"
)

// simulateTraceReference is the §5.4 slot model as a straight-line
// check-every-slot loop: no event-driven segment stripping, no report
// batching, no memoized conversions — one slot per iteration, rates
// recomputed inline at each report. It is the oracle for SimulateTrace's
// optimized loop: both must produce identical results (including every
// accumulated float, observable through OffSlots/FrameHistogram) on any
// trace.
func simulateTraceReference(tr trace.Trace, p AvailabilityParams) TraceResult {
	res := TraceResult{ID: tr.ID}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}

	lat := p.TPLateralError
	ang := p.TPAngularError
	var latStep, angStep float64
	slotSec := p.Slot.Seconds()

	samples := tr.Samples
	nextReportIdx := 1
	var realignAt time.Duration = -1

	end := tr.Duration()
	frameOff := 0
	slotInFrame := 0
	tolLat, tolAng := p.LateralTolerance, p.AngularTolerance

	prevN := samples[0].Pose.Rot.Normalize()
	prevNIdx := 0
	lastGap := time.Duration(math.MinInt64)
	var lastDt float64

	for at := time.Duration(0); at < end; at += p.Slot {
		for nextReportIdx < len(samples) && samples[nextReportIdx].At <= at {
			a, b := &samples[nextReportIdx-1], &samples[nextReportIdx]
			if realignAt >= 0 && b.At >= realignAt {
				lat = p.TPLateralError
				ang = p.TPAngularError
				realignAt = -1
			}
			if gap := b.At - a.At; gap != lastGap {
				lastGap, lastDt = gap, gap.Seconds()
			}
			if dt := lastDt; dt > 0 {
				if prevNIdx != nextReportIdx-1 {
					prevN = a.Pose.Rot.Normalize()
				}
				bN := b.Pose.Rot.Normalize()
				dLin := a.Pose.Trans.Dist(b.Pose.Trans)
				dAng := geom.AngleBetweenNormalized(prevN, bN)
				prevN, prevNIdx = bN, nextReportIdx
				latRate := dLin / dt
				angRate := dAng / dt
				latStep = latRate * slotSec
				angStep = angRate * slotSec
			}
			realignAt = b.At + p.RealignLatency
			nextReportIdx++
		}

		if realignAt >= 0 && at >= realignAt {
			lat = p.TPLateralError
			ang = p.TPAngularError
			realignAt = -1
		}

		res.Slots++
		if lat > tolLat || ang > tolAng {
			res.OffSlots++
			frameOff++
		}
		slotInFrame++
		if slotInFrame == 30 {
			res.FrameHistogram[frameOff]++
			slotInFrame, frameOff = 0, 0
		}

		lat += latStep
		ang += angStep
	}
	if slotInFrame > 0 {
		res.FrameHistogram[frameOff]++
	}
	if res.Slots > 0 {
		res.OnFraction = 1 - float64(res.OffSlots)/float64(res.Slots)
	}
	return res
}

// TestSimulateTraceMatchesReference pins the optimized slot loop (event
// segmentation, monotone fast path, blocked report-delta precompute) to
// the naive per-slot reference on real synthetic traces — including ones
// long enough to cross many simBlock boundaries — and on adversarial
// spacings (duplicate timestamps, irregular gaps).
func TestSimulateTraceMatchesReference(t *testing.T) {
	p := Paper25G()
	check := func(name string, tr trace.Trace) {
		t.Helper()
		want := simulateTraceReference(tr, p)
		got := SimulateTrace(tr, p)
		if got.Slots != want.Slots || got.OffSlots != want.OffSlots ||
			math.Float64bits(got.OnFraction) != math.Float64bits(want.OnFraction) ||
			got.FrameHistogram != want.FrameHistogram {
			t.Errorf("%s: optimized %+v != reference %+v", name, got, want)
		}
	}

	// Full-length synthetic traces across several seeds (6001 reports
	// each: ~23 simBlock fills per trace).
	for _, seed := range []int64{3, 700, 701, -12} {
		check("synthetic", trace.Generate(seed, int(seed&7), time.Minute, geom.V(0, -1.5, 0)))
	}
	// Short trace: fewer reports than one block.
	check("short", trace.Generate(9, 1, 300*time.Millisecond, geom.Vec3{}))

	// Duplicate timestamps (dt == 0 must keep the previous drift rates)
	// and an irregular gap breaking the memoized conversion.
	base := trace.Generate(5, 2, 2*time.Second, geom.Vec3{})
	irregular := trace.Trace{ID: "irregular", Samples: append([]trace.Sample(nil), base.Samples...)}
	irregular.Samples[40].At = irregular.Samples[39].At // dt = 0
	irregular.Samples[80].At += 3 * time.Millisecond    // gap change
	irregular.Samples[81].At += 3 * time.Millisecond
	check("irregular", irregular)
}

// simulatePerSlotReference is the armed slot engine as it ran before runs:
// the same event loop with every armed slot stepped on its own — a fault
// cursor read, the blocked-episode step, one policy Observe and the sink
// call per slot. It is the oracle for simulate's run-length armed path
// (TestArmedEngineMatchesPerSlotReference).
func simulatePerSlotReference(tr trace.Trace, p ChaosParams, arms slotArms) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}

	// Current drift state: offsets at the start of the current slot.
	lat := p.TPLateralError
	ang := p.TPAngularError

	// Per-slot drift increments between the last pair of reports.
	var latStep, angStep float64
	slotSec := p.Slot.Seconds()

	samples := tr.Samples
	nextReportIdx := 1
	var realignAt time.Duration = -1

	end := tr.Duration()
	var fold frameFold
	tolLat, tolAng := p.LateralTolerance, p.AngularTolerance

	// The per-report drift steps, precomputed in blocks of simBlock
	// reports exactly as the engine does (TestSimulateTraceMatchesReference
	// pins that precompute to the inline form).
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

	// The fault arms. fs is the fault state of the slot at hand, read once
	// per slot; without a schedule it stays zero and every fault branch
	// below is dead.
	faults := !arms.sched.Empty()
	cur := arms.sched.Cursor()
	var fs fault.State
	blk := newBlockState(p, arms, faults)

	// Event handling reads the fault state of the segment's head slot:
	// the first slot at or after the report or realignment time.
	for at := time.Duration(0); at < end; {
		if faults {
			fs = cur.At(at)
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

		// Every slot runs the blocked-episode bookkeeping, the policy
		// step and the sink with its own fault state.
		for {
			blocked := blk.step(at, fs.AttenDB, &res)
			off := blocked || lat > tolLat || ang > tolAng
			if blocked {
				res.BlockedSlots++
			}
			if h := arms.hybrid; h != nil {
				off = h.stepReference(at, p.Slot, fs, off)
			}
			if arms.sink != nil {
				arms.sink(fold.slots, 1, off)
			}
			fold.add(off)

			// Drift across the slot.
			lat += latStep
			ang += angStep
			if at += p.Slot; at >= limit {
				break
			}
			if faults {
				fs = cur.At(at)
			}
		}
	}
	fold.finish(&res.TraceResult)
	return res
}

// stepReference is the hybrid arm's per-slot step as it ran before runs:
// one mmWave step and one policy Observe per slot.
func (h *hybridArm) stepReference(at, slot time.Duration, fs fault.State, fsoOff bool) bool {
	if fsoOff {
		h.fsoOff++
	}
	mmUp := h.mm.step(at, fs.AttenDB-fs.HazeDB)
	st := h.ctl.Observe(at, slot, !fsoOff)
	if st.OnSecondary() {
		h.secondarySlots++
		if mmUp {
			h.goodput += h.hp.Secondary.PeakGoodputGbps
		}
		return !mmUp
	}
	if !fsoOff {
		h.goodput += h.hp.PrimaryGoodputGbps
	}
	return fsoOff
}

// mmWaveReference is SimulateTraceMmWave's per-slot loop as it ran before
// runs: one cursor read and one mmWave step per slot.
func mmWaveReference(tr trace.Trace, p ChaosParams, mp MmWaveSlotParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	if mp == (MmWaveSlotParams{}) {
		mp = PaperMmWave()
	}
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}
	mm := mmSlotState{p: mp}
	cur := sched.Cursor()
	end := tr.Duration()
	var fold frameFold
	wasBlocked := false
	var goodputSum float64
	for at := time.Duration(0); at < end; at += p.Slot {
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
		if up {
			goodputSum += mp.PeakGoodputGbps
		} else {
			res.BlockedSlots++
		}
		fold.add(!up)
	}
	fold.finish(&res.TraceResult)
	if res.Slots > 0 {
		res.MeanGoodputGbps = goodputSum / float64(res.Slots)
	}
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}

// armedRun runs one engine with the chaos arms wired as simulateChaos and
// SimulateTraceHybrid wire them (hp nil: FSO only), plus an optional sink,
// and renders everything it produced: every result field, the hybrid
// arm's FSO off count, the sink's verdict stream and the exposition.
func armedRun(engine func(trace.Trace, ChaosParams, slotArms) ChaosTraceResult,
	tr trace.Trace, p ChaosParams, hp *HybridSlotParams, sched *fault.Schedule, withSink bool) string {
	reg := obs.NewRegistry()
	var verdicts []byte
	arms := slotArms{sched: sched, om: fault.NewOutageMetrics(reg)}
	if p.TXCount > 1 {
		arms.hm = fault.NewHandoverMetrics(reg)
	}
	if withSink {
		arms.sink = func(from, n int, off bool) {
			for slot := from; slot < from+n; slot++ {
				v := byte('.')
				if off {
					v = 'x'
				}
				if slot != len(verdicts) {
					v = '?'
				}
				verdicts = append(verdicts, v)
			}
		}
	}
	var h *hybridArm
	if hp != nil {
		hp.defaults()
		h = &hybridArm{hp: *hp, ctl: policy.New(hp.Policy, policy.NewMetrics(reg)), mm: mmSlotState{p: hp.Secondary}}
		arms.hybrid = h
	}
	res := engine(tr, p, arms)
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", res)
	if h != nil {
		fmt.Fprintf(&b, "fsoOff=%d secondary=%d goodput=%s failovers=%d readmits=%d mindwell=%v\n",
			h.fsoOff, h.secondarySlots, fmtBits(h.goodput), h.ctl.Failovers(), h.ctl.Readmits(),
			h.ctl.MinSecondaryDwell())
	}
	fmt.Fprintf(&b, "sink %s\n", verdicts)
	b.WriteString(reg.Exposition())
	return b.String()
}

// armedCase draws one randomized armed-engine case: a 2–22 s trace, a
// fault schedule at 0.5–12× the default rates (with haze fades on half the
// cases, hard-edged or shallow 5–15 dB occlusions on some), one to four
// TXs with a random standby block probability and 0–4 ms dark time, a
// 0–500 ms re-lock and, on some cases, tightened tolerances so the
// misalignment verdict flips inside segments. Half the cases carry the
// hybrid arm with 1 ns–2 ms breach and 0–2 ms clear windows over a
// mmWave side that blocks at 8 dB and recovers in 0–50 ms. A third of the
// schedules, and half the drawn durations, sit on the 1 ms slot grid, so
// window edges and deadlines land exactly on slots, where an off-by-one
// horizon shows.
func armedCase(i int) (trace.Trace, ChaosParams, *HybridSlotParams, fault.Schedule) {
	rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
	span := func(max time.Duration) time.Duration {
		if rng.Intn(2) == 0 {
			return time.Duration(rng.Int63n(int64(max/time.Millisecond)+1)) * time.Millisecond
		}
		return time.Duration(rng.Int63n(int64(max) + 1))
	}
	length := 2*time.Second + time.Duration(rng.Int63n(int64(20*time.Second)))
	tr := trace.Generate(int64(i%37), i, length, geom.V(0.35, 0.25, 1.0))

	cfg := fault.DefaultConfig()
	scale := 0.5 + 11.5*rng.Float64()
	for _, cc := range []*fault.ClassConfig{&cfg.Occlusion, &cfg.Blackout, &cfg.Freeze, &cfg.Stuck, &cfg.Saturation, &cfg.Diverge} {
		cc.PerMin *= scale
	}
	switch rng.Intn(4) {
	case 0:
		cfg.OcclusionRamp = 0
	case 1:
		cfg.OcclusionDepthDB = [2]float64{5, 15}
	}
	if rng.Intn(2) == 0 {
		hz := fault.DefaultHazeConfig()
		cfg.Haze, cfg.HazeDepthDB, cfg.HazeRampUp, cfg.HazeRampDown = hz.Haze, hz.HazeDepthDB, hz.HazeRampUp, hz.HazeRampDown
		cfg.Haze.PerMin *= scale
		if rng.Intn(4) == 0 {
			cfg.HazeRampUp, cfg.HazeRampDown = [2]time.Duration{}, [2]time.Duration{}
		}
	}
	sched := fault.Plan(cfg, int64(i)*31+5, tr.Duration())
	if rng.Intn(3) == 0 {
		for k := range sched.Windows {
			w := &sched.Windows[k]
			w.Start, w.End = w.Start.Round(time.Millisecond), w.End.Round(time.Millisecond)
			w.Ramp, w.RampDown = w.Ramp.Round(time.Millisecond), w.RampDown.Round(time.Millisecond)
		}
	}

	p := PaperChaos25G()
	p.TXCount = 1 + rng.Intn(4)
	p.StandbyBlockProb = rng.Float64()
	p.HandoverDark = span(4 * time.Millisecond)
	p.Relock = span(500 * time.Millisecond)
	if rng.Intn(2) == 0 {
		p.LateralTolerance *= 0.6 + 0.4*rng.Float64()
		p.AngularTolerance *= 0.6 + 0.4*rng.Float64()
	}

	var hp *HybridSlotParams
	if rng.Intn(2) == 0 {
		hp = &HybridSlotParams{
			Policy: policy.Options{
				BreachAfter: max(1, span(2*time.Millisecond)),
				ClearAfter:  span(2 * time.Millisecond),
			},
			Secondary: MmWaveSlotParams{PeakGoodputGbps: 4.6, BlockAttenDB: 8, Recovery: span(50 * time.Millisecond)},
		}
	}
	return tr, p, hp, sched
}

// rampCase is armedCase(i) with one ramp-dense episode family added to
// its schedule, on the 1 ms grid so that verdict flips land on slots
// (a 20 dB fade ramping over 2 s reads exactly 10 dB halfway up):
//
//   - family 0: a hard-edged plateau occlusion whose depth equals the
//     10 dB FSO or the 8 dB mmWave threshold exactly, under a ramping haze
//     fade, where fl(fl(occ+H)−H) wobbles around the threshold;
//   - family 1: three stacked haze fades ramping together;
//   - family 2: triangular occlusion and haze windows whose leading and
//     trailing ramps overlap;
//   - family 3: an occlusion ramping inside a haze ramp.
//
// Even cases carry the hybrid arm, whose mmWave side reads the physical
// verdict.
func rampCase(i int) (trace.Trace, ChaosParams, *HybridSlotParams, fault.Schedule) {
	tr, p, hp, sched := armedCase(i)
	rng := rand.New(rand.NewSource(int64(i)*104729 + 3))
	ms := func(lo, hi int) time.Duration { return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond }
	s0 := ms(0, int(tr.Duration()/time.Millisecond)/2)
	win := func(k fault.Kind, start, end time.Duration, depth float64, up, down time.Duration) fault.Window {
		return fault.Window{Kind: k, Start: start, End: end, DepthDB: depth, Ramp: up, RampDown: down}
	}
	var add []fault.Window
	switch i % 4 {
	case 0:
		depth := []float64{10, 8}[rng.Intn(2)]
		add = append(add,
			win(fault.HazeFade, s0, s0+ms(4000, 8000), 20, 2*time.Second, 3*time.Second),
			win(fault.Occlusion, s0+ms(200, 1500), s0+ms(2000, 3500), depth, 0, 0))
	case 1:
		for k := 0; k < 3; k++ {
			add = append(add, win(fault.HazeFade, s0+ms(0, 700), s0+ms(4000, 7000),
				float64(6+rng.Intn(7)), ms(1000, 3000), ms(1000, 3000)))
		}
	case 2:
		add = append(add,
			win(fault.Occlusion, s0, s0+ms(150, 400), 20, ms(100, 300), 0),
			win(fault.HazeFade, s0+ms(500, 1000), s0+ms(2500, 3500), 25, ms(1500, 2000), ms(1200, 2000)))
	case 3:
		add = append(add,
			win(fault.HazeFade, s0, s0+ms(6000, 9000), 16, 3*time.Second, 2*time.Second),
			win(fault.Occlusion, s0+ms(500, 2000), s0+ms(2300, 2600), 12, ms(50, 200), 0))
	}
	sched.Windows = append(sched.Windows, add...)
	sort.SliceStable(sched.Windows, func(a, b int) bool {
		wa, wb := &sched.Windows[a], &sched.Windows[b]
		if wa.Start != wb.Start {
			return wa.Start < wb.Start
		}
		return wa.Kind < wb.Kind
	})
	if hp == nil && i%2 == 0 {
		hp = &HybridSlotParams{Secondary: MmWaveSlotParams{PeakGoodputGbps: 4.6, BlockAttenDB: 8, Recovery: ms(0, 50)}}
	}
	return tr, p, hp, sched
}

// TestArmedEngineMatchesPerSlotReference pins the run-length armed path to
// the per-slot loop it replaced: on 400 randomized cases (armedCase) and
// 80 ramp-dense ones (rampCase) the engine and simulatePerSlotReference
// agree on every result field, the hybrid arm's bookkeeping, the full sink
// verdict stream and the exposition bytes; SimulateTraceMmWave agrees with
// its per-slot loop the same way.
func TestArmedEngineMatchesPerSlotReference(t *testing.T) {
	for _, gen := range []struct {
		name  string
		cases int
		draw  func(int) (trace.Trace, ChaosParams, *HybridSlotParams, fault.Schedule)
	}{{"armed", 400, armedCase}, {"ramp", 80, rampCase}} {
		for i := 0; i < gen.cases; i++ {
			tr, p, hp, sched := gen.draw(i)
			withSink := i%3 != 0
			got := armedRun(simulate, tr, p, hp, &sched, withSink)
			want := armedRun(simulatePerSlotReference, tr, p, hp, &sched, withSink)
			if got != want {
				t.Fatalf("%s case %d (%v, TX %d, hybrid %v):\n%s", gen.name, i, tr.Duration(), p.TXCount, hp != nil, firstDiff(got, want))
			}
			if i%4 == 0 || gen.name == "ramp" {
				mp := MmWaveSlotParams{PeakGoodputGbps: 4.6, BlockAttenDB: 8, Recovery: p.Relock / 10}
				regGot, regWant := obs.NewRegistry(), obs.NewRegistry()
				g := fmt.Sprintf("%+v\n%s", SimulateTraceMmWave(tr, p, mp, &sched, regGot), regGot.Exposition())
				w := fmt.Sprintf("%+v\n%s", mmWaveReference(tr, p, mp, &sched, regWant), regWant.Exposition())
				if g != w {
					t.Fatalf("%s case %d mmWave-only:\n%s", gen.name, i, firstDiff(g, w))
				}
			}
		}
	}
}

// firstDiff renders the first differing line of two renders.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\nengine:    %s\nreference: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("engine %d lines, reference %d lines", len(gl), len(wl))
}
