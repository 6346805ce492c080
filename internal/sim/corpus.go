// The streaming corpus engine: the one corpus entry point, clean or under
// fault injection. A corpus is an indexed CorpusSource — traces are
// produced on demand, never materialized as a whole — cut into fixed-size
// shards that parallel.Fold fans out and reduces serially, in shard order,
// into a running aggregate. The engine's contract:
//
//   - bit-identical results for any worker count (the shard partition is a
//     function of the options alone, never of the worker count, and every
//     reduction happens serially in shard order);
//   - memory bounded: live heap is one batch of shard outputs (O(workers ·
//     shard) results) plus, per worker, one trace sample buffer and one
//     fault schedule's windows — Fold's per-worker scratch, reused by
//     every shard that worker runs — independent of corpus length, unless
//     KeepPerTrace asks for the full per-trace slice.
package sim

import (
	"fmt"
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/parallel"
	"cyclops/internal/trace"
)

// CorpusSource is an indexed stream of traces. At must be a pure function
// of i — the engine calls it from worker goroutines. trace.Source
// generates the §5.4 synthetic corpus this way; TraceSlice adapts an
// already-materialized slice.
type CorpusSource interface {
	// Len is the corpus size.
	Len() int
	// At returns trace i (0 ≤ i < Len). Must be pure and safe for
	// concurrent calls.
	At(i int) trace.Trace
}

// ReusableSource is an optional CorpusSource refinement: AtInto is At
// with a caller-owned sample buffer, aliased by the returned trace when
// large enough. The engine consumes each trace fully (simulate, fold,
// drop) before asking for the next one, so every parallel.Fold worker
// keeps a single buffer for all the shards it runs and threads it through
// every AtInto call — one sample allocation per worker instead of one per
// trace (and its clear). trace.Source implements it; sources that don't
// silently get the plain At path.
type ReusableSource interface {
	CorpusSource
	// AtInto is At with a reusable buffer. Like At it must be pure in i
	// and safe for concurrent calls (distinct buffers).
	AtInto(i int, buf []trace.Sample) trace.Trace
}

// TraceSlice adapts a materialized []trace.Trace to CorpusSource.
type TraceSlice []trace.Trace

// Len returns the corpus size.
func (s TraceSlice) Len() int { return len(s) }

// At returns trace i.
func (s TraceSlice) At(i int) trace.Trace { return s[i] }

// Materialize realizes a source as a slice, generating traces across the
// worker pool (≤ 0 means the parallel package default). Use it when an
// experiment reuses the same corpus for several sweep cells; for a single
// pass, stream the source through RunCorpus instead.
func Materialize(src CorpusSource, workers int) []trace.Trace {
	return parallel.Map(src.Len(), workers, src.At)
}

// CorpusChaos arms fault injection on a corpus run: trace i's schedule is
// fault.Plan(Config, Seed + 7919·i, trace duration) — independent faults
// per trace, the whole corpus a pure function of (Config, Seed).
type CorpusChaos struct {
	// Config sets the per-class fault rates and durations.
	Config fault.Config
	// Seed derives every per-trace schedule.
	Seed int64
	// Params are the chaos slot-model constants (blocking threshold,
	// re-lock, TX count, handover). Validate defaults a zero value to
	// PaperChaos25G's chaos constants, and a zero embedded
	// AvailabilityParams (including that of a zero value) to the run's
	// Params.
	Params ChaosParams
	// Hybrid, when non-nil, runs the hybrid FSO + mmWave policy arm
	// (SimulateTraceHybrid) instead of the plain chaos model. Mutually
	// exclusive with MmWaveOnly.
	Hybrid *HybridSlotParams
	// MmWaveOnly, when non-nil, runs the mmWave-only arm
	// (SimulateTraceMmWave): the fault schedules still plan per trace,
	// but only their physical-obstruction component matters.
	MmWaveOnly *MmWaveSlotParams
}

// CorpusOptions configures RunCorpus. The zero value is valid: Paper25G
// constants, no chaos, default workers, 64-trace shards, aggregate-only
// results, metrics merged into obs.Default().
type CorpusOptions struct {
	// Params are the §5.4 slot-model constants; the zero value means
	// Paper25G().
	Params AvailabilityParams
	// Chaos, when non-nil, runs the chaos slot model with per-trace fault
	// schedules instead of the clean one.
	Chaos *CorpusChaos
	// Workers is the fan-out width (≤ 0: the parallel package default;
	// 1: the serial reference path). Any value yields bit-identical
	// results.
	Workers int
	// ShardSize is the number of consecutive traces per shard (≤ 0: 64).
	// The shard partition — not the worker count — is part of the
	// result's identity: metric histogram sums are folded shard by shard,
	// so changing ShardSize may flip last-bit float rounding while every
	// integer aggregate stays identical.
	ShardSize int
	// KeepPerTrace retains the per-trace results (for CDFs and per-trace
	// renders). Off, the run holds only O(workers · ShardSize) results at
	// a time — the memory-bounded mode.
	KeepPerTrace bool
	// Registry receives the corpus's merged metrics once, when the run
	// completes. nil means obs.Default(); pass a throwaway
	// obs.NewRegistry() to keep a run out of the process registry.
	Registry *obs.Registry
}

// Validate fills defaults in place — through o.Chaos too — and rejects
// malformed options, slot-model constants included. RunCorpus validates a
// private copy of the chaos spec, so a run never writes the caller's
// CorpusChaos.
func (o *CorpusOptions) Validate() error {
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.ShardSize < 0 {
		return fmt.Errorf("sim: CorpusOptions.ShardSize %d is negative", o.ShardSize)
	}
	if o.ShardSize == 0 {
		o.ShardSize = DefaultShardSize
	}
	if o.Params == (AvailabilityParams{}) {
		o.Params = Paper25G()
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if err := o.Params.validate("CorpusOptions.Params"); err != nil {
		return err
	}
	if o.Chaos != nil {
		c := o.Chaos
		if c.Hybrid != nil && c.MmWaveOnly != nil {
			return fmt.Errorf("sim: CorpusChaos.Hybrid and MmWaveOnly are mutually exclusive")
		}
		if c.Params == (ChaosParams{}) {
			c.Params = PaperChaos25G()
			c.Params.AvailabilityParams = o.Params
		} else if c.Params.AvailabilityParams == (AvailabilityParams{}) {
			c.Params.AvailabilityParams = o.Params
		}
		if err := c.Params.validate("CorpusChaos.Params"); err != nil {
			return err
		}
	}
	return nil
}

// validate rejects slot-model constants the engine would misread rather
// than fail on: a NaN tolerance makes every lat > tol comparison false,
// so the run would report 100 % availability.
func (p AvailabilityParams) validate(name string) error {
	if p.Slot < 0 || p.RealignLatency < 0 {
		return fmt.Errorf("sim: %s: negative Slot %v or RealignLatency %v", name, p.Slot, p.RealignLatency)
	}
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"LateralTolerance", p.LateralTolerance},
		{"AngularTolerance", p.AngularTolerance},
		{"TPLateralError", p.TPLateralError},
		{"TPAngularError", p.TPAngularError},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("sim: %s.%s %v is not a finite non-negative value", name, f.field, f.v)
		}
	}
	return nil
}

// Validate rejects chaos slot-model constants the engine would misread
// rather than fail on, for callers that run the slot model outside
// CorpusOptions (the arena). Zero fields stay valid: callers default them.
func (p ChaosParams) Validate() error { return p.validate("ChaosParams") }

// validate extends AvailabilityParams.validate to the chaos constants. A
// BlockAttenDB at or below zero stays valid: it never blocks
// (thresholdDB).
func (p ChaosParams) validate(name string) error {
	if err := p.AvailabilityParams.validate(name); err != nil {
		return err
	}
	if math.IsNaN(p.BlockAttenDB) || math.IsInf(p.BlockAttenDB, 0) {
		return fmt.Errorf("sim: %s.BlockAttenDB %v is not finite", name, p.BlockAttenDB)
	}
	if p.Relock < 0 || p.HandoverDark < 0 {
		return fmt.Errorf("sim: %s: negative Relock %v or HandoverDark %v", name, p.Relock, p.HandoverDark)
	}
	if !(p.StandbyBlockProb >= 0 && p.StandbyBlockProb <= 1) {
		return fmt.Errorf("sim: %s.StandbyBlockProb %v is outside [0, 1]", name, p.StandbyBlockProb)
	}
	return nil
}

// DefaultShardSize is the shard width Validate applies when
// CorpusOptions.ShardSize is zero.
const DefaultShardSize = 64

// CorpusAggregate is the running reduction of a corpus run — every field
// folds associatively in shard order.
type CorpusAggregate struct {
	// Traces, Slots, OffSlots total the corpus so far.
	Traces   int
	Slots    int
	OffSlots int
	// MeanOnFraction is 1 − OffSlots/Slots, recomputed after every fold.
	MeanOnFraction float64
	// MinOnFraction / MaxOnFraction bound the per-trace spread.
	MinOnFraction, MaxOnFraction float64
	// Outages, BlockedSlots, Handovers total the chaos bookkeeping (zero
	// on clean runs).
	Outages      int
	BlockedSlots int
	Handovers    int
	// Failovers, Readmits, SecondarySlots total the hybrid policy's
	// bookkeeping; MinSecondaryDwell is the shortest completed secondary
	// dwell across the corpus (zero when none completed); GoodputSlotSum
	// is Σ MeanGoodputGbps·Slots over traces, so the corpus-mean delivered
	// goodput is GoodputSlotSum/Slots. All zero outside hybrid/mmWave arms.
	Failovers         int
	Readmits          int
	SecondarySlots    int
	MinSecondaryDwell time.Duration
	GoodputSlotSum    float64
	// Metrics folds the per-trace observability snapshots — per trace
	// within a shard, then shard by shard, always in index order.
	Metrics obs.Snapshot
}

// addTrace folds one trace's result and metrics snapshot into the
// aggregate, as a one-trace aggregate. Serial use only; a's metric maps
// must be its own (see merge).
func (a *CorpusAggregate) addTrace(r ChaosTraceResult, snap obs.Snapshot) {
	a.merge(CorpusAggregate{
		Traces:            1,
		Slots:             r.Slots,
		OffSlots:          r.OffSlots,
		MinOnFraction:     r.OnFraction,
		MaxOnFraction:     r.OnFraction,
		Outages:           r.Outages,
		BlockedSlots:      r.BlockedSlots,
		Handovers:         r.Handovers,
		Failovers:         r.Failovers,
		Readmits:          r.Readmits,
		SecondarySlots:    r.SecondarySlots,
		MinSecondaryDwell: r.MinSecondaryDwell,
		GoodputSlotSum:    r.MeanGoodputGbps * float64(r.Slots),
		Metrics:           snap,
	})
}

// merge folds a completed shard's aggregate in. Serial use only, shards in
// index order. It folds o's metrics into a's maps in place
// (obs.Snapshot.MergeInPlace), so a must own them, as a zero aggregate
// does.
func (a *CorpusAggregate) merge(o CorpusAggregate) {
	if o.Traces == 0 {
		return
	}
	if a.Traces == 0 {
		a.MinOnFraction, a.MaxOnFraction = o.MinOnFraction, o.MaxOnFraction
	} else {
		if o.MinOnFraction < a.MinOnFraction {
			a.MinOnFraction = o.MinOnFraction
		}
		if o.MaxOnFraction > a.MaxOnFraction {
			a.MaxOnFraction = o.MaxOnFraction
		}
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
	a.Metrics.MergeInPlace(o.Metrics)
}

// finalize recomputes the derived mean. Idempotent.
func (a *CorpusAggregate) finalize() {
	a.MeanOnFraction = 0
	if a.Slots > 0 {
		a.MeanOnFraction = 1 - float64(a.OffSlots)/float64(a.Slots)
	}
}

// CorpusRunResult is RunCorpus's outcome: the aggregate and, with
// KeepPerTrace, the per-trace results.
type CorpusRunResult struct {
	CorpusAggregate
	// PerTrace holds the per-trace results in trace order when
	// KeepPerTrace is set (clean runs leave the chaos fields zero).
	PerTrace []ChaosTraceResult
}

// RunCorpus streams a corpus through the sharded slot-model engine: clean
// or chaos (Options.Chaos), any worker count with bit-identical results,
// memory-bounded unless KeepPerTrace. The only error is a Validate
// rejection.
func RunCorpus(src CorpusSource, opts CorpusOptions) (CorpusRunResult, error) {
	if opts.Chaos != nil {
		c := *opts.Chaos
		opts.Chaos = &c
	}
	if err := opts.Validate(); err != nil {
		return CorpusRunResult{}, err
	}
	n := src.Len()
	var res CorpusRunResult
	if opts.KeepPerTrace {
		res.PerTrace = make([]ChaosTraceResult, 0, n)
	}
	parallel.Fold((n+opts.ShardSize-1)/opts.ShardSize, opts.Workers,
		func() *shardScratch { return new(shardScratch) },
		func(sc *shardScratch, k int) shardOut {
			return runShard(src, &opts, k*opts.ShardSize, min((k+1)*opts.ShardSize, n), sc)
		},
		func(so shardOut) {
			res.merge(so.agg)
			res.PerTrace = append(res.PerTrace, so.perTrace...)
		})
	res.finalize()
	opts.Registry.Merge(res.Metrics)
	return res, nil
}

// shardOut is one shard's contribution, reduced serially by the caller.
type shardOut struct {
	agg      CorpusAggregate
	perTrace []ChaosTraceResult
}

// shardScratch is one Fold worker's storage, reused by every shard the
// worker runs: the trace sample buffer and the fault schedule's window
// storage. Each trace is fully consumed by its simulate call before the
// next one overwrites both.
type shardScratch struct {
	buf  []trace.Sample
	wins []fault.Window
}

// runShard simulates traces [lo, hi) serially and folds them — results and
// per-trace metric snapshots alike — in trace order, on the Fold worker's
// scratch sc.
func runShard(src CorpusSource, opts *CorpusOptions, lo, hi int, sc *shardScratch) shardOut {
	var out shardOut
	if opts.KeepPerTrace {
		out.perTrace = make([]ChaosTraceResult, 0, hi-lo)
	}
	reuse, _ := src.(ReusableSource)
	for i := lo; i < hi; i++ {
		var tr trace.Trace
		if reuse != nil {
			tr = reuse.AtInto(i, sc.buf)
		} else {
			tr = src.At(i)
		}
		reg := obs.NewRegistry()
		var r ChaosTraceResult
		if c := opts.Chaos; c != nil {
			sched := fault.PlanInto(c.Config, c.Seed+7919*int64(i), tr.Duration(), sc.wins)
			sc.wins = sched.Windows
			switch {
			case c.Hybrid != nil:
				r = SimulateTraceHybrid(tr, c.Params, *c.Hybrid, &sched, reg)
			case c.MmWaveOnly != nil:
				r = SimulateTraceMmWave(tr, c.Params, &sched, reg)
			default:
				r = SimulateTraceChaosRuns(tr, c.Params, &sched, reg, nil)
			}
		} else {
			// Without a schedule the slot loop never blocks, so its runs
			// end only where the misalignment verdict flips.
			r = ChaosTraceResult{TraceResult: SimulateTraceObs(tr, opts.Params, reg)}
		}
		out.agg.addTrace(r, reg.Snapshot())
		if opts.KeepPerTrace {
			out.perTrace = append(out.perTrace, r)
		}
		if reuse != nil {
			sc.buf = tr.Samples[:0]
		}
	}
	return out
}
