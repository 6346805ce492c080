package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cyclops/internal/baseline"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/policy"
	"cyclops/internal/trace"
)

// hazeSched is a single deep haze fade: long enough to drive a failover,
// transparent to the mmWave side.
func hazeSched(start, end time.Duration) *fault.Schedule {
	return &fault.Schedule{Seed: 1, Windows: []fault.Window{{
		Kind: fault.HazeFade, Start: start, End: end,
		DepthDB: 30, Ramp: 500 * time.Millisecond, RampDown: time.Second,
	}}}
}

// With no faults the hybrid arm never leaves the primary and its
// availability fields match the plain chaos model slot for slot.
func TestHybridEmptyScheduleStaysPrimary(t *testing.T) {
	origin := geom.V(0.35, 0.25, 1.0)
	for i := 0; i < 4; i++ {
		tr := trace.Generate(5, i, 10*time.Second, origin)
		base := SimulateTraceChaosSlots(tr, PaperChaos25G(), nil, nil, nil)
		got := SimulateTraceHybrid(tr, PaperChaos25G(), HybridSlotParams{}, nil, nil)
		if got.Failovers != 0 || got.Readmits != 0 || got.SecondarySlots != 0 {
			t.Fatalf("trace %d: clean hybrid run switched media: %+v", i, got)
		}
		if got.OffSlots != base.OffSlots || got.OnFraction != base.OnFraction ||
			got.FrameHistogram != base.FrameHistogram {
			t.Fatalf("trace %d: clean hybrid availability differs from chaos model", i)
		}
		if base.OffSlots == 0 && got.MeanGoodputGbps != optics.SFP28LR.OptimalGoodputGbps {
			t.Fatalf("trace %d: fully-on goodput %v, want %v", i, got.MeanGoodputGbps, optics.SFP28LR.OptimalGoodputGbps)
		}
	}
}

// A deep haze fade kills the FSO side but not the mmWave side: the hybrid
// arm must fail over, carry on the secondary, re-admit after the fade, and
// deliver strictly better availability than FSO alone — with no secondary
// dwell shorter than the clear window.
func TestHybridHazeBeatsFSO(t *testing.T) {
	tr := trace.Generate(5, 3, 20*time.Second, geom.V(0.35, 0.25, 1.0))
	sched := hazeSched(4*time.Second, 12*time.Second)
	fso := SimulateTraceChaosSlots(tr, PaperChaos25G(), sched, nil, nil)
	hy := SimulateTraceHybrid(tr, PaperChaos25G(), HybridSlotParams{}, sched, nil)

	if fso.OnFraction >= 0.95 {
		t.Fatalf("haze fade barely hurt FSO (%v on) — scenario too weak", fso.OnFraction)
	}
	if hy.Failovers < 1 || hy.Readmits < 1 {
		t.Fatalf("failovers=%d readmits=%d, want ≥1 each", hy.Failovers, hy.Readmits)
	}
	if hy.OnFraction <= fso.OnFraction {
		t.Fatalf("hybrid on %v did not beat FSO-only %v", hy.OnFraction, fso.OnFraction)
	}
	if hy.MinSecondaryDwell < policy.ClearAfter {
		t.Fatalf("min secondary dwell %v below clear window — policy flapped", hy.MinSecondaryDwell)
	}
	if hy.SecondarySlots == 0 {
		t.Fatal("no secondary slots despite a failover")
	}
	// The FSO-side episode bookkeeping is preserved for comparison.
	if hy.Outages != fso.Outages || hy.BlockedSlots != fso.BlockedSlots {
		t.Errorf("hybrid rewrote FSO episode bookkeeping: %d/%d vs %d/%d",
			hy.Outages, hy.BlockedSlots, fso.Outages, fso.BlockedSlots)
	}
}

// The mmWave-only arm ignores haze entirely and is severed by physical
// occlusion for the window plus its MAC recovery tail.
func TestMmWaveOnlyArm(t *testing.T) {
	tr := trace.Generate(5, 7, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	p := PaperChaos25G()

	clean := SimulateTraceMmWave(tr, p, nil, nil)
	if clean.OffSlots != 0 || clean.OnFraction != 1 || clean.Outages != 0 {
		t.Fatalf("clean mmWave arm not fully on: %+v", clean)
	}
	if math.Abs(clean.MeanGoodputGbps-baseline.PeakGoodputGbps) > 1e-9 {
		t.Fatalf("clean mmWave goodput %v, want %v", clean.MeanGoodputGbps, baseline.PeakGoodputGbps)
	}

	haze := SimulateTraceMmWave(tr, p, hazeSched(2*time.Second, 8*time.Second), nil)
	if haze.OffSlots != 0 || haze.Outages != 0 {
		t.Fatalf("haze blocked the mmWave arm: %+v", haze)
	}

	occl := &fault.Schedule{Windows: []fault.Window{{
		Kind: fault.Occlusion, Start: 2 * time.Second, End: 2*time.Second + 300*time.Millisecond,
		DepthDB: 30, Ramp: 10 * time.Millisecond,
	}}}
	reg := obs.NewRegistry()
	blocked := SimulateTraceMmWave(tr, p, occl, reg)
	if blocked.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", blocked.Outages)
	}
	// ≈300 ms window + 30 ms MAC recovery at 1 ms slots ⇒ ≈330 off slots,
	// far below an FSO re-lock tail.
	if blocked.OffSlots < 250 || blocked.OffSlots > 400 {
		t.Errorf("OffSlots = %d, want ≈330", blocked.OffSlots)
	}
	if blocked.OffSlots != blocked.BlockedSlots {
		t.Errorf("OffSlots %d != BlockedSlots %d — mmWave never misaligns", blocked.OffSlots, blocked.BlockedSlots)
	}
}

// The hybrid and mmWave-only corpus arms are bit-identical at any worker
// count, and the aggregate folds (switch counts, secondary time, goodput
// sums) match a serial re-fold of the per-trace results.
func TestHybridCorpusWorkerDeterminism(t *testing.T) {
	src := trace.Source{Seed: 5, N: 48, Length: 15 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
	for _, arm := range []struct {
		name  string
		chaos CorpusChaos
	}{
		{"hybrid", CorpusChaos{Config: fault.DefaultHazeConfig(), Seed: 11,
			Hybrid: &HybridSlotParams{}}},
		{"mmwave", CorpusChaos{Config: fault.DefaultConfig(), Seed: 11,
			MmWaveOnly: &MmWaveSlotParams{}}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			run := func(workers int) CorpusRunResult {
				chaos := arm.chaos
				res, err := RunCorpus(src, CorpusOptions{
					Chaos: &chaos, Workers: workers, ShardSize: 8,
					KeepPerTrace: true, Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatalf("RunCorpus(workers=%d): %v", workers, err)
				}
				return res
			}
			base := run(1)
			for _, w := range []int{2, 4} {
				got := run(w)
				if !reflect.DeepEqual(got.CorpusAggregate, base.CorpusAggregate) {
					t.Fatalf("workers=%d aggregate differs from serial", w)
				}
				if !reflect.DeepEqual(got.PerTrace, base.PerTrace) {
					t.Fatalf("workers=%d per-trace results differ from serial", w)
				}
			}
			var failovers, readmits, secondary int
			var goodput float64
			for _, r := range base.PerTrace {
				failovers += r.Failovers
				readmits += r.Readmits
				secondary += r.SecondarySlots
				goodput += r.MeanGoodputGbps * float64(r.Slots)
			}
			a := base.CorpusAggregate
			if a.Failovers != failovers || a.Readmits != readmits || a.SecondarySlots != secondary {
				t.Errorf("aggregate switch counts %d/%d/%d, re-fold %d/%d/%d",
					a.Failovers, a.Readmits, a.SecondarySlots, failovers, readmits, secondary)
			}
			// The engine folds per shard then merges, so the sum's float
			// association differs from a flat re-fold — compare within ulps.
			if math.Abs(a.GoodputSlotSum-goodput) > 1e-6*math.Abs(goodput) {
				t.Errorf("GoodputSlotSum %v, re-fold %v", a.GoodputSlotSum, goodput)
			}
			if arm.name == "hybrid" && a.Failovers == 0 {
				t.Error("haze corpus drove no failovers — arm not exercised")
			}
		})
	}
}
