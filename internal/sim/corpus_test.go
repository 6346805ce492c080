package sim

import (
	"math"
	"reflect"
	"runtime"
	"sync"
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

func TestCorpusOptionsValidate(t *testing.T) {
	var o CorpusOptions
	if err := o.Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
	if o.Params != Paper25G() || o.ShardSize != DefaultShardSize || o.Registry != obs.Default() {
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
// traces, never the corpus). heapProbe samples the live heap from inside
// one run, after a forced GC, as each shard asks for its first trace —
// at least once per shard batch.
func TestRunCorpusMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming-heap measurement in -short mode")
	}
	const shard = 16
	peak := func(n int) uint64 {
		probe := &heapProbe{Source: trace.Source{Seed: 11, N: n, Length: 2 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}, every: shard}
		res, err := RunCorpus(probe, CorpusOptions{
			Workers:   2,
			ShardSize: shard,
			Registry:  obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Traces != n || probe.samples != (n+shard-1)/shard {
			t.Fatalf("n=%d: %d traces, %d heap samples", n, res.Traces, probe.samples)
		}
		return probe.peak
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

// heapProbe is a trace.Source that records the peak live heap, read after
// a forced GC, whenever a trace index that is a multiple of every is
// requested.
type heapProbe struct {
	trace.Source
	every int

	mu      sync.Mutex
	samples int
	peak    uint64
}

func (p *heapProbe) At(i int) trace.Trace { return p.AtInto(i, nil) }

func (p *heapProbe) AtInto(i int, buf []trace.Sample) trace.Trace {
	if i%p.every == 0 {
		p.mu.Lock()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.samples++
		p.peak = max(p.peak, ms.HeapAlloc)
		p.mu.Unlock()
	}
	return p.Source.AtInto(i, buf)
}
