package main

import "time"

// span names one layer boundary the traced run times. Every span is a
// call into a layer's public function, made from the benchmark's own
// replay of the workload; no timer lives inside the program.
type span int

const (
	spTraceGen span = iota
	spFaultPlan
	spFaultAt
	spArenaOcclusion
	spSlotModel
	spNetemTick
	spObsFold
	spMotionPose
	spVRHReport
	spGMACompile
	spPointingSolve
	spLinkPower
	spLinkMonitor
	spCoreLoop
	spKspaceCalibrate
	spVRSpaceCollect
	spVRSpaceFit
	spVRSpaceEvaluate
	nSpans
)

// spanNames are the metric prefixes, indexed by span.
var spanNames = [nSpans]string{
	spTraceGen:        "trace.gen",
	spFaultPlan:       "fault.plan",
	spFaultAt:         "fault.at",
	spArenaOcclusion:  "arena.occlusion",
	spSlotModel:       "sim.slot_model",
	spNetemTick:       "netem.tick",
	spObsFold:         "obs.fold",
	spMotionPose:      "motion.pose",
	spVRHReport:       "vrh.report",
	spGMACompile:      "gma.compile",
	spPointingSolve:   "pointing.solve",
	spLinkPower:       "link.power",
	spLinkMonitor:     "link.monitor",
	spCoreLoop:        "core.loop",
	spKspaceCalibrate: "kspace.calibrate",
	spVRSpaceCollect:  "vrspace.collect",
	spVRSpaceFit:      "vrspace.fit",
	spVRSpaceEvaluate: "vrspace.evaluate",
}

// notCovered marks the spans left out of trace.coverage: fault.at is a
// replay of calls that already ran inside sim.slot_model, and core.loop
// is the residual of the run loop, so counting either would cover time
// twice or by construction.
var notCovered = [nSpans]bool{spFaultAt: true, spCoreLoop: true}

// spans accumulates busy time and call counts per span. The traced run
// is serial, so there is no locking.
type spans struct {
	busy  [nSpans]time.Duration
	calls [nSpans]int64
}

// end closes a span that began at start.
func (s *spans) end(sp span, start time.Time) {
	s.busy[sp] += time.Since(start)
	s.calls[sp]++
}

// covered is the busy time of the top-level spans.
func (s *spans) covered() time.Duration {
	var d time.Duration
	for sp := span(0); sp < nSpans; sp++ {
		if !notCovered[sp] {
			d += s.busy[sp]
		}
	}
	return d
}
