package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// testSource is a small streaming corpus for the engine tests.
func testSource(n int) trace.Source {
	return trace.Source{Seed: 11, N: n, Length: 10 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
}

// testChaos is a hostile-enough chaos spec to produce outages and (with a
// second TX) handovers on the short test corpus.
func testChaos() *CorpusChaos {
	p := PaperChaos25G()
	p.TXCount = 2
	p.HandoverDark = 2 * time.Millisecond
	p.StandbyBlockProb = 0.3
	return &CorpusChaos{
		Config: fault.Config{
			Occlusion:        fault.ClassConfig{PerMin: 6, MinDur: 300 * time.Millisecond, MaxDur: 500 * time.Millisecond},
			OcclusionDepthDB: [2]float64{25, 45},
			OcclusionRamp:    10 * time.Millisecond,
		},
		Seed:   21,
		Params: p,
	}
}

// runOpts builds engine options that stay out of the process registry.
func runOpts(workers int, chaos *CorpusChaos) CorpusOptions {
	return CorpusOptions{
		Workers:      workers,
		ShardSize:    8,
		KeepPerTrace: true,
		Chaos:        chaos,
		Registry:     obs.NewRegistry(),
	}
}

func TestRunCorpusWorkerDeterminism(t *testing.T) {
	src := testSource(40)
	for _, chaos := range []*CorpusChaos{nil, testChaos()} {
		serial, err := RunCorpus(src, runOpts(1, chaos))
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		if serial.Traces != 40 || serial.Slots == 0 {
			t.Fatalf("serial aggregate empty: %+v", serial.CorpusAggregate)
		}
		if chaos != nil && (serial.Outages == 0 || serial.Handovers == 0) {
			t.Fatalf("chaos run fired %d outages / %d handovers — test is vacuous",
				serial.Outages, serial.Handovers)
		}
		for _, workers := range []int{2, 4} {
			got, err := RunCorpus(src, runOpts(workers, chaos))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("workers=%d chaos=%v: CorpusRunResult differs from serial", workers, chaos != nil)
			}
			if got.Metrics.Exposition() != serial.Metrics.Exposition() {
				t.Errorf("workers=%d chaos=%v: metrics exposition differs from serial", workers, chaos != nil)
			}
		}
	}
}

// TestRunCorpusResume proves a run interrupted at every possible shard
// boundary and resumed stitches back to the uninterrupted result — the
// aggregate, the checkpoint, and the concatenated per-trace slices alike.
func TestRunCorpusResume(t *testing.T) {
	src := testSource(30) // 4 shards of 8
	full, err := RunCorpus(src, runOpts(2, testChaos()))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if !full.Checkpoint.Done {
		t.Fatal("full run not Done")
	}
	for _, window := range []int{1, 2, 3} {
		var per []ChaosTraceResult
		ck := Checkpoint{}
		for !ck.Done {
			opts := runOpts(2, testChaos())
			opts.Resume = ck
			opts.MaxShards = window
			part, err := RunCorpus(src, opts)
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			per = append(per, part.PerTrace...)
			ck = part.Checkpoint
		}
		if !reflect.DeepEqual(ck, full.Checkpoint) {
			t.Errorf("window=%d: stitched checkpoint differs from uninterrupted run", window)
		}
		if !reflect.DeepEqual(per, full.PerTrace) {
			t.Errorf("window=%d: stitched per-trace results differ from uninterrupted run", window)
		}
		if ck.Agg.Metrics.Exposition() != full.Metrics.Exposition() {
			t.Errorf("window=%d: stitched metrics exposition differs", window)
		}
	}
}

// TestRunCorpusCancel pins the cancellation contract: a canceled run
// returns ctx's error with a usable checkpoint, and resuming from it
// reproduces the uninterrupted result.
func TestRunCorpusCancel(t *testing.T) {
	src := testSource(30)
	full, err := RunCorpus(src, runOpts(2, nil))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := runOpts(2, nil)
	opts.Context = ctx
	part, err := RunCorpus(src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if part.Checkpoint.Done {
		t.Fatal("canceled run claims Done")
	}
	resume := runOpts(2, nil)
	resume.Resume = part.Checkpoint
	rest, err := RunCorpus(src, resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rest.Checkpoint, full.Checkpoint) {
		t.Error("resumed-after-cancel checkpoint differs from uninterrupted run")
	}
}

// TestRunCorpusResumeOutOfRange: a checkpoint from a 4-shard run resumed
// on a 2-shard source is an error, never a Done run whose aggregate was
// stitched from a different corpus.
func TestRunCorpusResumeOutOfRange(t *testing.T) {
	full, err := RunCorpus(testSource(30), runOpts(2, nil))
	if err != nil || full.Checkpoint.NextShard != 4 {
		t.Fatalf("full: next shard %d, err %v; want 4 shards done", full.Checkpoint.NextShard, err)
	}
	opts := runOpts(2, nil)
	opts.Resume = full.Checkpoint
	res, err := RunCorpus(testSource(16), opts)
	if err == nil || res.Checkpoint.Done {
		t.Fatalf("resume past the source's 2 shards: err %v, Done %v; want an error", err, res.Checkpoint.Done)
	}
	if got := opts.Registry.Snapshot(); len(got.Counters)+len(got.Histograms) != 0 {
		t.Error("rejected resume merged metrics into the registry")
	}
}

func TestCorpusOptionsValidate(t *testing.T) {
	var o CorpusOptions
	if err := o.Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
	if o.Params != Paper25G() || o.ShardSize != DefaultShardSize || o.Context == nil || o.Registry != obs.Default() {
		t.Errorf("zero-options defaults wrong: %+v", o)
	}
	chaos := CorpusOptions{Chaos: &CorpusChaos{}}
	if err := chaos.Validate(); err != nil {
		t.Fatalf("zero chaos: %v", err)
	}
	if chaos.Chaos.Params.BlockAttenDB != PaperChaos25G().BlockAttenDB {
		t.Errorf("zero chaos params not defaulted: %+v", chaos.Chaos.Params)
	}
	inherit := CorpusOptions{Chaos: &CorpusChaos{Params: ChaosParams{BlockAttenDB: 7}}}
	if err := inherit.Validate(); err != nil {
		t.Fatalf("inherit: %v", err)
	}
	if inherit.Chaos.Params.AvailabilityParams != Paper25G() || inherit.Chaos.Params.BlockAttenDB != 7 {
		t.Errorf("chaos availability params not inherited: %+v", inherit.Chaos.Params)
	}
	for _, bad := range []CorpusOptions{
		{ShardSize: -1},
		{MaxShards: -1},
		{Resume: Checkpoint{NextShard: -1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

// TestCorpusChaosDefaultsTakeRunParams: a zero CorpusChaos.Params takes
// the chaos constants from PaperChaos25G but the slot-model constants
// from CorpusOptions.Params, so a custom-tolerance run equals one that
// spells those tolerances out — and Validate defaults into a copy,
// leaving the caller's CorpusChaos untouched.
func TestCorpusChaosDefaultsTakeRunParams(t *testing.T) {
	src := testSource(8)
	custom := Paper25G()
	custom.LateralTolerance = 5e-3
	custom.AngularTolerance = 7e-3
	run := func(chaos *CorpusChaos) CorpusRunResult {
		res, err := RunCorpus(src, CorpusOptions{
			Params: custom, Chaos: chaos, Workers: 1, KeepPerTrace: true, Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("RunCorpus: %v", err)
		}
		return res
	}
	zero := &CorpusChaos{Config: testChaos().Config, Seed: 21}
	caller := *zero
	got := run(zero)
	if *zero != caller {
		t.Errorf("RunCorpus wrote the caller's CorpusChaos: %+v", *zero)
	}
	spelled := PaperChaos25G()
	spelled.AvailabilityParams = custom
	want := run(&CorpusChaos{Config: zero.Config, Seed: zero.Seed, Params: spelled})
	if !reflect.DeepEqual(got, want) {
		t.Error("zero Chaos.Params run differs from one spelling out the run's Params")
	}
	spelled.AvailabilityParams = Paper25G()
	if paper := run(&CorpusChaos{Config: zero.Config, Seed: zero.Seed, Params: spelled}); paper.OffSlots == want.OffSlots {
		t.Fatal("custom tolerances moved no slot — test is vacuous")
	}
}

// TestSimulateTraceChaosSlotsSink checks the per-slot sink fires once per
// slot, in order, with verdicts that total exactly OffSlots.
func TestSimulateTraceChaosSlotsSink(t *testing.T) {
	tr := testSource(1).At(0)
	spec := testChaos()
	sched := fault.Plan(spec.Config, spec.Seed, tr.Duration())
	var calls, offs, lastSlot int
	lastSlot = -1
	res := SimulateTraceChaosSlots(tr, spec.Params, &sched, nil, func(slot int, off bool) {
		if slot != lastSlot+1 {
			t.Fatalf("sink slot %d after %d — not in order", slot, lastSlot)
		}
		lastSlot = slot
		calls++
		if off {
			offs++
		}
	})
	if calls != res.Slots {
		t.Errorf("sink fired %d times over %d slots", calls, res.Slots)
	}
	if offs != res.OffSlots {
		t.Errorf("sink saw %d off slots, result has %d", offs, res.OffSlots)
	}
	plain := SimulateTraceChaosSlots(tr, spec.Params, &sched, nil, nil)
	if !reflect.DeepEqual(plain, res) {
		t.Error("sink changed the simulation result")
	}
}

// TestRunCorpusMemoryBounded is the streaming claim, measured: a 10×
// longer corpus run in aggregate-only mode must stay within a fixed live
// heap envelope of the small one (the engine holds O(workers·shard)
// traces, never the corpus). The run steps through Resume/MaxShards
// windows so retained state is sampled between batches, after a forced GC.
func TestRunCorpusMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming-heap measurement in -short mode")
	}
	peak := func(n int) uint64 {
		src := trace.Source{Seed: 11, N: n, Length: 2 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
		var peak uint64
		ck := Checkpoint{}
		for !ck.Done {
			res, err := RunCorpus(src, CorpusOptions{
				Workers:   2,
				ShardSize: 16,
				Registry:  obs.NewRegistry(),
				Resume:    ck,
				MaxShards: 4,
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			ck = res.Checkpoint
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return peak
	}
	small := peak(160)
	big := peak(1600)
	// The envelope is generous (GC timing, -race bookkeeping) but far
	// below the ~10× growth a materialized corpus would show.
	limit := small*2 + 16<<20
	t.Logf("live heap peak: %d traces -> %d bytes, %d traces -> %d bytes (limit %d)",
		160, small, 1600, big, limit)
	if big > limit {
		t.Errorf("10x corpus peaked at %d bytes live heap, want <= %d (2x small + 16MB)", big, limit)
	}
}
