package main

import (
	"fmt"
	"sort"
	"time"

	"cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// corpusClean is the paper's §5.4 headline experiment: the Fig 16 corpus
// on the clean slot model, per-trace results kept as Fig16 keeps them.
// Trace generation dominates it and the fault layer does no work, so it
// is the workload on which a fault-layer change should move nothing.
var corpusClean = workload{
	name:  "corpus-clean",
	setup: func(sz size, seed int64) (pass, error) { return corpusSetup(sz, seed, false) },
	replay: func(sz size, seed int64, sp *spans) (summary, map[string]float64, error) {
		return corpusReplay(sz, seed, false, sp)
	},
	parallel: true,
}

// corpusChaos is the same corpus under every fault kind plus haze fades,
// with the hybrid FSO + mmWave policy arm — the composition
// `cyclops-sim -chaos -haze -hybrid` builds. It runs the per-slot chaos
// loop, fault.Schedule.At, the policy controller and the mmWave model.
var corpusChaos = workload{
	name:  "corpus-chaos",
	setup: func(sz size, seed int64) (pass, error) { return corpusSetup(sz, seed, true) },
	replay: func(sz size, seed int64, sp *spans) (summary, map[string]float64, error) {
		return corpusReplay(sz, seed, true, sp)
	},
	parallel: true,
}

// corpusInputs builds the corpus source and validated options.
func corpusInputs(sz size, seed int64, chaos bool) (trace.Source, sim.CorpusOptions, error) {
	src := cyclops.TraceSource(seed)
	src.N, src.Length = sz.traces, sz.traceLen
	opts := sim.CorpusOptions{Params: sim.Paper25G(), Workers: 1, KeepPerTrace: true}
	if chaos {
		cfg := fault.DefaultConfig()
		hz := fault.DefaultHazeConfig()
		cfg.Haze, cfg.HazeDepthDB = hz.Haze, hz.HazeDepthDB
		cfg.HazeRampUp, cfg.HazeRampDown = hz.HazeRampUp, hz.HazeRampDown
		opts.Chaos = &sim.CorpusChaos{Config: cfg, Seed: seed + 1, Hybrid: &sim.HybridSlotParams{}}
	}
	err := opts.Validate()
	return src, opts, err
}

func corpusSetup(sz size, seed int64, chaos bool) (pass, error) {
	src, opts, err := corpusInputs(sz, seed, chaos)
	if err != nil {
		return nil, err
	}
	return func(workers int) (summary, error) {
		o := opts
		o.Workers = workers
		// A fresh registry per pass: the default one would grow across
		// repeats and inflate alloc_mb.
		o.Registry = obs.NewRegistry()
		res, err := sim.RunCorpus(src, o)
		if err != nil {
			return nil, err
		}
		return newCorpusSummary(res.CorpusAggregate, res.PerTrace, chaos), nil
	}, nil
}

// corpusSummary is a corpus pass's aggregate plus the per-trace 2nd
// percentile availability.
type corpusSummary struct {
	Agg          sim.CorpusAggregate
	P2OnFraction float64
	Chaos        bool
}

func newCorpusSummary(agg sim.CorpusAggregate, perTrace []sim.ChaosTraceResult, chaos bool) corpusSummary {
	on := make([]float64, len(perTrace))
	for i, r := range perTrace {
		on[i] = r.OnFraction
	}
	sort.Float64s(on)
	s := corpusSummary{Agg: agg, Chaos: chaos}
	if len(on) > 0 {
		// 2 % of 500 traces leaves ten beyond it.
		s.P2OnFraction = on[len(on)*2/100]
	}
	return s
}

func (s corpusSummary) check(sz size) error {
	a := s.Agg
	if a.Traces != sz.traces {
		return fmt.Errorf("%d traces, want %d", a.Traces, sz.traces)
	}
	if err := checkSlots(a.Slots, a.Traces, int(sz.traceLen/sim.Paper25G().Slot), a.OffSlots, a.BlockedSlots); err != nil {
		return err
	}
	if !s.Chaos {
		return checkPaperRange(a.MeanOnFraction * 100)
	}
	return nil
}

func (s corpusSummary) modelled() modelled {
	a := s.Agg
	m := modelled{
		work:            float64(a.Traces),
		simSeconds:      float64(a.Slots) * sim.Paper25G().Slot.Seconds(),
		availabilityPct: a.MeanOnFraction * 100,
	}
	if s.Chaos {
		m.goodputGbps = a.GoodputSlotSum / float64(a.Slots)
	} else {
		// Fig 16's effective bandwidth: the 25G link's goodput while up.
		m.goodputGbps = a.MeanOnFraction * cyclops.Link25G.Transceiver.OptimalGoodputGbps
	}
	return m
}

func (s corpusSummary) counts() map[string]float64 {
	a := s.Agg
	return map[string]float64{
		"sim.slots":               float64(a.Slots),
		"sim.off_slots":           float64(a.OffSlots),
		"sim.blocked_slots":       float64(a.BlockedSlots),
		"sim.handovers":           float64(a.Handovers),
		"sim.outages":             float64(a.Outages),
		"policy.failovers":        float64(a.Failovers),
		"policy.readmits":         float64(a.Readmits),
		"policy.secondary_slots":  float64(a.SecondarySlots),
		"sim.availability_p2_pct": s.P2OnFraction * 100,
	}
}

// corpusReplay is RunCorpus's serial path rebuilt from the layers' public
// calls: per trace generate (trace.gen), plan faults (fault.plan), run the
// slot model (sim.slot_model) and fold the trace's metrics (obs.fold);
// shards fold in index order exactly as the engine folds them, so the
// aggregate — float sums and metric snapshots included — must match.
func corpusReplay(sz size, seed int64, chaos bool, sp *spans) (summary, map[string]float64, error) {
	src, opts, err := corpusInputs(sz, seed, chaos)
	if err != nil {
		return nil, nil, err
	}
	n := src.Len()
	var agg sim.CorpusAggregate
	perTrace := make([]sim.ChaosTraceResult, 0, n)
	var buf []trace.Sample
	var samples, windows int
	for lo := 0; lo < n; lo += opts.ShardSize {
		hi := min(lo+opts.ShardSize, n)
		var shard sim.CorpusAggregate
		for i := lo; i < hi; i++ {
			t := time.Now()
			tr := src.AtInto(i, buf)
			sp.end(spTraceGen, t)
			samples += len(tr.Samples)

			reg := obs.NewRegistry()
			var r sim.ChaosTraceResult
			if c := opts.Chaos; c != nil {
				t = time.Now()
				sched := fault.Plan(c.Config, c.Seed+7919*int64(i), tr.Duration())
				sp.end(spFaultPlan, t)
				windows += len(sched.Windows)
				t = time.Now()
				r = sim.SimulateTraceHybrid(tr, c.Params, *c.Hybrid, &sched, reg)
				sp.end(spSlotModel, t)
				// The hybrid arm looks the schedule up twice per slot:
				// once in the chaos loop, once in the policy sink.
				replayScheduleAt(sp, &sched, tr.Duration(), c.Params.Slot, 2)
			} else {
				t = time.Now()
				r = sim.ChaosTraceResult{TraceResult: sim.SimulateTraceObs(tr, opts.Params, reg)}
				sp.end(spSlotModel, t)
			}

			t = time.Now()
			addTrace(&shard, r, reg.Snapshot())
			sp.end(spObsFold, t)
			perTrace = append(perTrace, r)
			buf = tr.Samples[:0]
		}
		t := time.Now()
		mergeShard(&agg, shard)
		sp.end(spObsFold, t)
	}
	if agg.Slots > 0 {
		agg.MeanOnFraction = 1 - float64(agg.OffSlots)/float64(agg.Slots)
	}
	extra := map[string]float64{"trace.samples": float64(samples), "fault.windows": float64(windows)}
	return newCorpusSummary(agg, perTrace, chaos), extra, nil
}

// replayScheduleAt repeats a slot loop's fault-schedule lookups, perSlot
// Schedule.At calls per slot over [0, end), and times them as fault.at.
// The loop skips lookups on an empty schedule, and so does the replay.
func replayScheduleAt(sp *spans, s *fault.Schedule, end, slot time.Duration, perSlot int) {
	if s.Empty() {
		return
	}
	t := time.Now()
	var calls int64
	for at := time.Duration(0); at < end; at += slot {
		for k := 0; k < perSlot; k++ {
			scheduleSink += s.At(at).AttenDB
			calls++
		}
	}
	sp.busy[spFaultAt] += time.Since(t)
	sp.calls[spFaultAt] += calls
}

// scheduleSink keeps the replayed lookups from being optimized away.
var scheduleSink float64

// addTrace is CorpusAggregate's per-trace fold, in the engine's order.
func addTrace(a *sim.CorpusAggregate, r sim.ChaosTraceResult, snap obs.Snapshot) {
	if a.Traces == 0 {
		a.MinOnFraction, a.MaxOnFraction = r.OnFraction, r.OnFraction
	} else {
		a.MinOnFraction = min(a.MinOnFraction, r.OnFraction)
		a.MaxOnFraction = max(a.MaxOnFraction, r.OnFraction)
	}
	a.Traces++
	a.Slots += r.Slots
	a.OffSlots += r.OffSlots
	a.Outages += r.Outages
	a.BlockedSlots += r.BlockedSlots
	a.Handovers += r.Handovers
	a.Failovers += r.Failovers
	a.Readmits += r.Readmits
	a.SecondarySlots += r.SecondarySlots
	if r.MinSecondaryDwell > 0 && (a.MinSecondaryDwell == 0 || r.MinSecondaryDwell < a.MinSecondaryDwell) {
		a.MinSecondaryDwell = r.MinSecondaryDwell
	}
	a.GoodputSlotSum += r.MeanGoodputGbps * float64(r.Slots)
	a.Metrics = a.Metrics.Merge(snap)
}

// mergeShard is CorpusAggregate's shard fold, in the engine's order.
func mergeShard(a *sim.CorpusAggregate, o sim.CorpusAggregate) {
	if o.Traces == 0 {
		return
	}
	if a.Traces == 0 {
		a.MinOnFraction, a.MaxOnFraction = o.MinOnFraction, o.MaxOnFraction
	} else {
		a.MinOnFraction = min(a.MinOnFraction, o.MinOnFraction)
		a.MaxOnFraction = max(a.MaxOnFraction, o.MaxOnFraction)
	}
	a.Traces += o.Traces
	a.Slots += o.Slots
	a.OffSlots += o.OffSlots
	a.Outages += o.Outages
	a.BlockedSlots += o.BlockedSlots
	a.Handovers += o.Handovers
	a.Failovers += o.Failovers
	a.Readmits += o.Readmits
	a.SecondarySlots += o.SecondarySlots
	if o.MinSecondaryDwell > 0 && (a.MinSecondaryDwell == 0 || o.MinSecondaryDwell < a.MinSecondaryDwell) {
		a.MinSecondaryDwell = o.MinSecondaryDwell
	}
	a.GoodputSlotSum += o.GoodputSlotSum
	a.Metrics = a.Metrics.Merge(o.Metrics)
}
