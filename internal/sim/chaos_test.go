package sim

import (
	"reflect"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// An all-zero schedule must reproduce the base §5.4 model slot for slot:
// the chaos path is the base path plus branches that never fire.
func TestChaosEmptyScheduleMatchesBase(t *testing.T) {
	origin := geom.V(0.35, 0.25, 1.0)
	for i := 0; i < 8; i++ {
		tr := trace.Generate(5, i, 10*time.Second, origin)
		base := SimulateTrace(tr, Paper25G())
		got := SimulateTraceChaosSlots(tr, PaperChaos25G(), nil, nil, nil)
		if !reflect.DeepEqual(got.TraceResult, base) {
			t.Fatalf("trace %d: empty-schedule chaos result differs from SimulateTrace", i)
		}
		if got.Outages != 0 || got.BlockedSlots != 0 {
			t.Fatalf("trace %d: empty schedule produced outages", i)
		}
		empty := &fault.Schedule{Seed: 1}
		got2 := SimulateTraceChaosSlots(tr, PaperChaos25G(), empty, nil, nil)
		if !reflect.DeepEqual(got2, got) {
			t.Fatalf("trace %d: windowless schedule differs from nil schedule", i)
		}
	}
}

// A single deep occlusion severs the link for its window plus the re-lock
// tail, and never pushes availability outside [0, 1].
func TestChaosOcclusionEpisode(t *testing.T) {
	tr := trace.Generate(5, 42, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	p := PaperChaos25G()
	p.Relock = 500 * time.Millisecond
	sched := &fault.Schedule{Windows: []fault.Window{{
		Kind: fault.Occlusion, Start: 2 * time.Second, End: 2*time.Second + 300*time.Millisecond,
		DepthDB: 30, Ramp: 10 * time.Millisecond,
	}}}
	reg := obs.NewRegistry()
	got := SimulateTraceChaosSlots(tr, p, sched, reg, nil)
	base := SimulateTrace(tr, p.AvailabilityParams)

	if got.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", got.Outages)
	}
	// Window ≈300 ms + 500 ms relock ⇒ roughly 800 blocked slots.
	if got.BlockedSlots < 700 || got.BlockedSlots > 900 {
		t.Errorf("BlockedSlots = %d, want ≈800", got.BlockedSlots)
	}
	if got.OffSlots < got.BlockedSlots {
		t.Errorf("OffSlots = %d < BlockedSlots = %d", got.OffSlots, got.BlockedSlots)
	}
	if got.OnFraction < 0 || got.OnFraction > 1 {
		t.Errorf("OnFraction = %v outside [0, 1]", got.OnFraction)
	}
	if got.OnFraction >= base.OnFraction {
		t.Errorf("occlusion did not cut availability: %v >= %v", got.OnFraction, base.OnFraction)
	}
	// The injected outage shows up in the shared metric names, and its
	// recovery lands in the reacquire histogram.
	exp := reg.Exposition()
	for _, want := range []string{"cyclops_outage_total 1", "cyclops_reacquire_seconds_count 1"} {
		if !containsLine(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
}

// A stuck galvo makes realignments no-ops: offsets keep accumulating, so a
// motion-heavy trace loses more slots than the fault-free run.
func TestChaosStuckGalvoDegrades(t *testing.T) {
	tr := trace.Generate(5, 7, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	p := PaperChaos25G()
	sched := &fault.Schedule{Windows: []fault.Window{{
		Kind: fault.GalvoStuck, Start: 1 * time.Second, End: 4 * time.Second,
	}}}
	got := SimulateTraceChaosSlots(tr, p, sched, nil, nil)
	base := SimulateTrace(tr, p.AvailabilityParams)
	if got.BlockedSlots != 0 {
		t.Errorf("stuck galvo is not an occlusion: BlockedSlots = %d", got.BlockedSlots)
	}
	if got.OffSlots < base.OffSlots {
		t.Errorf("stuck galvo reduced off slots: %d < %d", got.OffSlots, base.OffSlots)
	}
	if got.OnFraction < 0 || got.OnFraction > 1 {
		t.Errorf("OnFraction = %v outside [0, 1]", got.OnFraction)
	}
}

// TXCount 0 and 1 take the identical single-TX path: same results, same
// exposition, no handover instruments, no rescue rng consumed.
func TestChaosSingleTXBitIdentical(t *testing.T) {
	tr := trace.Generate(5, 42, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	p := PaperChaos25G()
	p.Relock = 500 * time.Millisecond
	sched := &fault.Schedule{Seed: 3, Windows: []fault.Window{{
		Kind: fault.Occlusion, Start: 2 * time.Second, End: 2*time.Second + 300*time.Millisecond,
		DepthDB: 30, Ramp: 10 * time.Millisecond,
	}}}
	run := func(txCount int) (ChaosTraceResult, string) {
		reg := obs.NewRegistry()
		q := p
		q.TXCount = txCount
		return SimulateTraceChaosSlots(tr, q, sched, reg, nil), reg.Exposition()
	}
	r0, e0 := run(0)
	r1, e1 := run(1)
	if !reflect.DeepEqual(r1, r0) {
		t.Error("TXCount=1 differs from TXCount=0")
	}
	if e1 != e0 {
		t.Error("TXCount=1 exposition differs from TXCount=0")
	}
	if containsSub(e0, "cyclops_handover") {
		t.Error("single-TX run registered handover metrics")
	}
}

// With a certainly-clear standby every occlusion episode is rescued: one
// handover per episode, no outage, ~HandoverDark of blocked time instead of
// the occlusion plus the re-lock tail. With every standby certainly blocked
// the multi-TX run collapses to the single-TX cost.
func TestChaosMultiTXRescue(t *testing.T) {
	tr := trace.Generate(5, 42, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	p := PaperChaos25G()
	p.Relock = 500 * time.Millisecond
	p.TXCount = 2
	p.HandoverDark = 2 * time.Millisecond
	sched := &fault.Schedule{Seed: 3, Windows: []fault.Window{{
		Kind: fault.Occlusion, Start: 2 * time.Second, End: 2*time.Second + 300*time.Millisecond,
		DepthDB: 30, Ramp: 10 * time.Millisecond,
	}}}

	p.StandbyBlockProb = 0 // standby always clear
	reg := obs.NewRegistry()
	rescued := SimulateTraceChaosSlots(tr, p, sched, reg, nil)
	if rescued.Handovers != 1 {
		t.Errorf("Handovers = %d, want 1", rescued.Handovers)
	}
	if rescued.Outages != 0 {
		t.Errorf("Outages = %d, want 0 (rescued episode is not an outage)", rescued.Outages)
	}
	if rescued.BlockedSlots < 1 || rescued.BlockedSlots > 4 {
		t.Errorf("BlockedSlots = %d, want ≈2 (one HandoverDark slew)", rescued.BlockedSlots)
	}
	exp := reg.Exposition()
	for _, want := range []string{"cyclops_handover_total 1", "cyclops_outage_total 0"} {
		if !containsLine(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	p.StandbyBlockProb = 1 // standby always shadowed too
	doomed := SimulateTraceChaosSlots(tr, p, sched, obs.NewRegistry(), nil)
	single := p
	single.TXCount = 1
	base := SimulateTraceChaosSlots(tr, single, sched, obs.NewRegistry(), nil)
	if doomed.Handovers != 0 || doomed.Outages != base.Outages || doomed.BlockedSlots != base.BlockedSlots {
		t.Errorf("fully-shadowed multi-TX run differs from single-TX: %+v vs %+v",
			doomed, base)
	}

	// Same parameters, same seed: bit-identical replay.
	again := SimulateTraceChaosSlots(tr, p, sched, obs.NewRegistry(), nil)
	if !reflect.DeepEqual(again, doomed) {
		t.Error("multi-TX chaos run not reproducible")
	}
}

// The sector-overlap placement model: wider ceiling spacing means a standby
// is less likely to share the primary's shadow, floored at the body-scale
// event rate.
func TestStandbyBlockProbForSpacing(t *testing.T) {
	narrow := StandbyBlockProbForSpacing(0.6)
	wide := StandbyBlockProbForSpacing(1.4)
	if !(narrow > wide) {
		t.Errorf("narrow spacing %v not riskier than wide %v", narrow, wide)
	}
	if wide != 0.02 {
		t.Errorf("1.4 m spacing = %v, want the 0.02 floor", wide)
	}
	if huge := StandbyBlockProbForSpacing(10); huge != 0.02 {
		t.Errorf("huge spacing = %v, want the 0.02 floor", huge)
	}
	if narrow <= 0.02 || narrow >= 1 {
		t.Errorf("narrow spacing %v outside (0.02, 1)", narrow)
	}
}

// TestSimulateChaosCorpusWorkerDeterminism: a chaos corpus under every
// DefaultConfig fault class (blackouts, stuck galvos, divergences next to
// the occlusions) is bit-identical at any worker count on one-trace
// shards, and every per-trace result stays inside its bounds.
func TestSimulateChaosCorpusWorkerDeterminism(t *testing.T) {
	origin := geom.V(0.35, 0.25, 1.0)
	traces := make([]trace.Trace, 24)
	for i := range traces {
		traces[i] = trace.Generate(5, i, 5*time.Second, origin)
	}
	p := PaperChaos25G()
	p.Relock = 200 * time.Millisecond
	run := func(workers int) CorpusRunResult {
		res, err := RunCorpus(TraceSlice(traces), CorpusOptions{
			Chaos:   &CorpusChaos{Config: fault.DefaultConfig(), Seed: 99, Params: p},
			Workers: workers, ShardSize: 1, KeepPerTrace: true, Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	if serial.Outages == 0 {
		t.Fatal("default fault config injected no outages — test is vacuous")
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: chaos corpus result differs from serial", workers)
		}
		if got.Metrics.Exposition() != serial.Metrics.Exposition() {
			t.Errorf("workers=%d: metrics exposition differs from serial", workers)
		}
	}
	for _, r := range serial.PerTrace {
		if r.OnFraction < 0 || r.OnFraction > 1 {
			t.Errorf("trace %s: OnFraction = %v outside [0, 1]", r.ID, r.OnFraction)
		}
		if r.OffSlots > r.Slots || r.OffSlots < 0 {
			t.Errorf("trace %s: OffSlots = %d of %d slots", r.ID, r.OffSlots, r.Slots)
		}
	}
}

// TestEngineAllocsFlatInTraceLength: the slot engine's allocations are a
// per-trace constant — nothing grows with the slot count. A 60 s trace
// must allocate exactly as often as a 10 s one on the chaos (with standby
// rescue and a sink) and hybrid paths. Run without -race by make
// alloc-check.
func TestEngineAllocsFlatInTraceLength(t *testing.T) {
	p := PaperChaos25G()
	p.TXCount = 3
	p.StandbyBlockProb = 0.3
	allocs := func(d time.Duration) (chaos, hybrid float64) {
		tr := trace.Generate(5, 1, d, geom.V(0.35, 0.25, 1.0))
		sched := fault.Plan(goldenConfig(), 3, d)
		if len(sched.Windows) == 0 {
			t.Fatalf("%v schedule is empty — test is vacuous", d)
		}
		offs := 0
		chaos = testing.AllocsPerRun(3, func() {
			SimulateTraceChaosSlots(tr, p, &sched, nil, func(_ int, off bool) {
				if off {
					offs++
				}
			})
		})
		hybrid = testing.AllocsPerRun(3, func() {
			SimulateTraceHybrid(tr, p, HybridSlotParams{}, &sched, nil)
		})
		return chaos, hybrid
	}
	c10, h10 := allocs(10 * time.Second)
	c60, h60 := allocs(60 * time.Second)
	t.Logf("allocs per trace: chaos %v, hybrid %v", c10, h10)
	if c60 != c10 {
		t.Errorf("SimulateTraceChaosSlots allocates %v on 60 s, %v on 10 s", c60, c10)
	}
	if h60 != h10 {
		t.Errorf("SimulateTraceHybrid allocates %v on 60 s, %v on 10 s", h60, h10)
	}
}

// TestRescueStreamZeroAllocs pins the per-trace rescue stream off the
// heap: arming standbys under faults seeds it, and a three-TX trace
// allocates exactly as often as the single-TX one. Run without -race.
func TestRescueStreamZeroAllocs(t *testing.T) {
	tr := trace.Generate(5, 1, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	sched := fault.Plan(goldenConfig(), 3, tr.Duration())
	allocs := func(txCount int) (float64, int) {
		p := PaperChaos25G()
		p.TXCount = txCount
		p.StandbyBlockProb = 0.3
		var handovers int
		n := testing.AllocsPerRun(5, func() {
			handovers = SimulateTraceChaosRuns(tr, p, &sched, nil, nil).Handovers
		})
		return n, handovers
	}
	one, _ := allocs(1)
	three, handovers := allocs(3)
	if handovers == 0 {
		t.Fatal("three-TX trace drew no rescue: test is vacuous")
	}
	if three != one {
		t.Errorf("TXCount 3 allocates %v per trace, TXCount 1 %v: the rescue stream reached the heap", three, one)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func containsLine(exp, want string) bool {
	for len(exp) > 0 {
		i := 0
		for i < len(exp) && exp[i] != '\n' {
			i++
		}
		if exp[:i] == want {
			return true
		}
		if i == len(exp) {
			break
		}
		exp = exp[i+1:]
	}
	return false
}
