package sim

import (
	"context"
	"errors"
	"math"
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
		// Three workers split the shards unevenly, so each worker's scratch
		// sees a different shard sequence than at two or four.
		for _, workers := range []int{2, 3, 4} {
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
		var prev CorpusRunResult
		var prevExp string
		for !ck.Done {
			opts := runOpts(2, testChaos())
			opts.Resume = ck
			opts.MaxShards = window
			part, err := RunCorpus(src, opts)
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			// The resumed run folds into a copy of its Resume.Agg metrics,
			// never into the maps the previous result still holds.
			if prev.Metrics.Exposition() != prevExp {
				t.Fatalf("window=%d: resuming at shard %d wrote into the previous result's metrics", window, ck.NextShard)
			}
			prev, prevExp = part, part.Metrics.Exposition()
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
	nanTol := Paper25G()
	nanTol.LateralTolerance = math.NaN()
	negSlot := Paper25G()
	negSlot.Slot = -time.Millisecond
	chaosWith := func(edit func(*ChaosParams)) *CorpusChaos {
		c := &CorpusChaos{Params: PaperChaos25G()}
		edit(&c.Params)
		return c
	}
	for _, bad := range []CorpusOptions{
		{ShardSize: -1},
		{MaxShards: -1},
		{Resume: Checkpoint{NextShard: -1}},
		{Params: nanTol},
		{Params: negSlot},
		{Chaos: chaosWith(func(p *ChaosParams) { p.AngularTolerance = math.Inf(1) })},
		{Chaos: chaosWith(func(p *ChaosParams) { p.BlockAttenDB = math.NaN() })},
		{Chaos: chaosWith(func(p *ChaosParams) { p.Relock = -time.Second })},
		{Chaos: chaosWith(func(p *ChaosParams) { p.StandbyBlockProb = 1.5 })},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v (chaos %+v)", bad, bad.Chaos)
		}
	}
	// A non-positive blocking depth is the documented "never blocks".
	neverBlocks := CorpusOptions{Chaos: chaosWith(func(p *ChaosParams) { p.BlockAttenDB = -3 })}
	if err := neverBlocks.Validate(); err != nil {
		t.Errorf("BlockAttenDB -3 rejected: %v", err)
	}
}

// TestCorpusOptionsValidateArms: the hybrid and mmWave-only arms are
// mutually exclusive, and either alone is accepted and left as set.
func TestCorpusOptionsValidateArms(t *testing.T) {
	both := CorpusOptions{Chaos: &CorpusChaos{Hybrid: &HybridSlotParams{}, MmWaveOnly: &MmWaveSlotParams{}}}
	if err := both.Validate(); err == nil {
		t.Error("Validate accepted both arms at once")
	}
	hybrid := CorpusOptions{Chaos: &CorpusChaos{Hybrid: &HybridSlotParams{}}}
	mm := CorpusOptions{Chaos: &CorpusChaos{MmWaveOnly: &MmWaveSlotParams{}}}
	for name, good := range map[string]CorpusOptions{"hybrid": hybrid, "mmWave-only": mm} {
		if err := good.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	if hybrid.Chaos.Hybrid == nil || hybrid.Chaos.MmWaveOnly != nil || mm.Chaos.MmWaveOnly == nil || mm.Chaos.Hybrid != nil {
		t.Errorf("Validate rewrote an arm: hybrid %+v, mmWave-only %+v", *hybrid.Chaos, *mm.Chaos)
	}
}

// TestCorpusOptionsValidateZeroAllocs: validating a well-formed armed
// spec allocates nothing (perfbench times Validate as set-up), so the
// error paths alone may format.
func TestCorpusOptionsValidateZeroAllocs(t *testing.T) {
	for _, c := range []*CorpusChaos{
		{Hybrid: &HybridSlotParams{}},
		{MmWaveOnly: &MmWaveSlotParams{}},
	} {
		o := CorpusOptions{Chaos: c, Registry: obs.NewRegistry()}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := o.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Validate of %+v allocates %v per call, want 0", *c, allocs)
		}
	}
}

// FuzzCorpusOptionsValidate: Validate never panics on arbitrary
// slot-model constants, rejects every option set with a NaN float field,
// and accepts only finite, non-negative tolerances and errors, non-negative
// durations and a StandbyBlockProb in [0, 1].
func FuzzCorpusOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, slot, realign int64, latTol, angTol, tpLat, tpAng, blockDB float64, relock, dark int64, standby float64, chaos bool) {
		p := AvailabilityParams{
			Slot: time.Duration(slot), RealignLatency: time.Duration(realign),
			LateralTolerance: latTol, AngularTolerance: angTol,
			TPLateralError: tpLat, TPAngularError: tpAng,
		}
		floats := []float64{latTol, angTol, tpLat, tpAng}
		o := CorpusOptions{Params: p}
		if chaos {
			o = CorpusOptions{Chaos: &CorpusChaos{Params: ChaosParams{
				AvailabilityParams: p, BlockAttenDB: blockDB,
				Relock: time.Duration(relock), HandoverDark: time.Duration(dark), StandbyBlockProb: standby,
			}}}
			floats = append(floats, blockDB, standby)
		}
		err := o.Validate()
		for _, v := range floats {
			if math.IsNaN(v) && err == nil {
				t.Fatalf("Validate accepted a NaN field: %+v", p)
			}
		}
		if err != nil {
			return
		}
		q := o.Params
		if chaos {
			q = o.Chaos.Params.AvailabilityParams
		}
		for _, v := range []float64{q.LateralTolerance, q.AngularTolerance, q.TPLateralError, q.TPAngularError} {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted tolerance or error %v", v)
			}
		}
		if q.Slot < 0 || q.RealignLatency < 0 {
			t.Fatalf("Validate accepted negative durations %v, %v", q.Slot, q.RealignLatency)
		}
		if c := o.Chaos; c != nil {
			if math.IsInf(c.Params.BlockAttenDB, 0) || c.Params.Relock < 0 || c.Params.HandoverDark < 0 ||
				c.Params.StandbyBlockProb < 0 || c.Params.StandbyBlockProb > 1 {
				t.Fatalf("Validate accepted chaos params %+v", c.Params)
			}
		}
	})
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

// TestSimulateTraceChaosRunsSink checks the run sink tiles the slots in
// order with non-empty runs, that its runs expand to the per-slot sink's
// verdicts, and that it fires once per engine run, not once per slot.
func TestSimulateTraceChaosRunsSink(t *testing.T) {
	tr := testSource(1).At(0)
	spec := testChaos()
	sched := fault.Plan(spec.Config, spec.Seed, tr.Duration())
	var slots []bool
	SimulateTraceChaosSlots(tr, spec.Params, &sched, nil, func(_ int, off bool) {
		slots = append(slots, off)
	})
	var runs []bool
	calls := 0
	res := SimulateTraceChaosRuns(tr, spec.Params, &sched, nil, func(from, n int, off bool) {
		if from != len(runs) || n < 1 {
			t.Fatalf("run [%d, +%d) after %d slots — not a tiling", from, n, len(runs))
		}
		for i := 0; i < n; i++ {
			runs = append(runs, off)
		}
		calls++
	})
	if !reflect.DeepEqual(runs, slots) {
		t.Fatal("run sink's verdicts differ from the per-slot sink's")
	}
	if len(runs) != res.Slots {
		t.Errorf("runs cover %d slots of %d", len(runs), res.Slots)
	}
	if calls*10 > res.Slots {
		t.Errorf("run sink fired %d times over %d slots — runs are not bulk", calls, res.Slots)
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
