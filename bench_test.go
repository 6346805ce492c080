package cyclops

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus the ablations DESIGN.md calls out. Each
// bench regenerates its experiment end to end and logs the same rows the
// paper reports, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation section in one run. EXPERIMENTS.md
// records paper-vs-measured for each.

import (
	"testing"
	"time"

	"cyclops/internal/arena"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
)

// BenchmarkFig3SpeedCDFs regenerates the §2.2 headset speed CDFs.
func BenchmarkFig3SpeedCDFs(b *testing.B) {
	var r Fig3Result
	for i := 0; i < b.N; i++ {
		r = Fig3(1, 25)
	}
	b.Log("\n" + r.Render())
}

// BenchmarkTable1LinkTolerance regenerates Table 1.
func BenchmarkTable1LinkTolerance(b *testing.B) {
	var r Table1Result
	for i := 0; i < b.N; i++ {
		r = Table1()
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig11DiameterSweep regenerates the Fig 11 tolerance-vs-diameter
// sweep.
func BenchmarkFig11DiameterSweep(b *testing.B) {
	var r Fig11Result
	for i := 0; i < b.N; i++ {
		r = Fig11()
	}
	b.Log("\n" + r.Render())
}

// BenchmarkTable2CalibrationError runs the full two-stage calibration
// (Table 2).
func BenchmarkTable2CalibrationError(b *testing.B) {
	var r Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = Table2(int64(100 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkCalibrate is one full two-stage calibration of the chosen 10G
// design at seed 1: both K-space grids, the ≈30 aligned tuples' alignment
// searches, the mapping fit and its evaluation. It is closed-loop's
// setup, and make bench-hotpath records it as calibrate_ns_per_op.
func BenchmarkCalibrate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Link10G, 1)
		sys.Obs = obs.NewRegistry()
		if _, err := sys.Calibrate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPLatency runs the §5.2 TP evaluation (cadence, stationary
// noise, latency, lock tests).
func BenchmarkTPLatency(b *testing.B) {
	var r TPResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = TPEvaluation(int64(200 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig13PureMotions runs the 10G rail and rotation-stage
// experiments.
func BenchmarkFig13PureMotions(b *testing.B) {
	var lin, ang MotionResult
	var err error
	for i := 0; i < b.N; i++ {
		lin, ang, err = Fig13(int64(300 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + lin.Render() + ang.Render())
}

// BenchmarkFig14ArbitraryMotion runs the 10G user study.
func BenchmarkFig14ArbitraryMotion(b *testing.B) {
	var m MotionResult
	var err error
	for i := 0; i < b.N; i++ {
		m, err = Fig14(int64(400 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + m.Render())
}

// BenchmarkFig15TwentyFiveG runs the 25G pure and mixed experiments.
func BenchmarkFig15TwentyFiveG(b *testing.B) {
	var lin, ang, mix MotionResult
	var err error
	for i := 0; i < b.N; i++ {
		lin, ang, mix, err = Fig15(int64(500 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + lin.Render() + ang.Render() + mix.Render())
}

// BenchmarkTable3Summary assembles the tolerated-speed summary.
func BenchmarkTable3Summary(b *testing.B) {
	var r Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = Table3(int64(600 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig16TraceAvailability runs the §5.4 corpus simulation.
func BenchmarkFig16TraceAvailability(b *testing.B) {
	var r Fig16Result
	for i := 0; i < b.N; i++ {
		r = Fig16(int64(700 + i))
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig16TraceAvailabilitySerial pins the §5.4 corpus simulation to
// the serial path (workers=1). Compare against the Parallel variant below
// to measure the fan-out speedup on a given machine; the Makefile `bench`
// target records both into BENCH_parallel.json. Output is bit-identical
// between the two for any worker count.
func BenchmarkFig16TraceAvailabilitySerial(b *testing.B) {
	var r Fig16Result
	for i := 0; i < b.N; i++ {
		r = Fig16Workers(int64(700+i), 1)
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig16TraceAvailabilityParallel runs the same corpus with the
// default worker pool (one worker per core).
func BenchmarkFig16TraceAvailabilityParallel(b *testing.B) {
	var r Fig16Result
	for i := 0; i < b.N; i++ {
		r = Fig16Workers(int64(700+i), 0)
	}
	b.Log("\n" + r.Render())
}

// BenchmarkFig16ChaosCorpusSerial runs the Fig 16 corpus through the armed
// slot engine at workers=1: every fault kind of DefaultFaultConfig plus the
// haze fades of DefaultHazeFaultConfig, with the hybrid FSO + mmWave policy
// arm — the composition `cyclops-sim -chaos -haze -hybrid` builds and the
// perfbench corpus-chaos workload runs. `make bench-hotpath` records it as
// chaos_corpus_ns_per_op.
func BenchmarkFig16ChaosCorpusSerial(b *testing.B) {
	cfg := DefaultFaultConfig()
	hz := DefaultHazeFaultConfig()
	cfg.Haze, cfg.HazeDepthDB = hz.Haze, hz.HazeDepthDB
	cfg.HazeRampUp, cfg.HazeRampDown = hz.HazeRampUp, hz.HazeRampDown
	var res CorpusRunResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunCorpus(TraceSource(int64(700+i)), CorpusOptions{
			Params:   sim.Paper25G(),
			Workers:  1,
			Registry: obs.NewRegistry(),
			Chaos:    &sim.CorpusChaos{Config: cfg, Seed: int64(701 + i), Hybrid: &sim.HybridSlotParams{}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%d traces, %d slots, delivered %.2f%% up", res.Traces, res.Slots, res.MeanOnFraction*100)
}

// BenchmarkFig16ArenaSerial runs the densest fig16-arena cell — the
// configuration of the perfbench arena workload: 128 headsets at
// 2 users/m², 8 per ceiling TX, one-minute sessions, seed 1 — through
// arena.Run at workers=1. `make bench-hotpath` records it as
// arena_ns_per_op.
func BenchmarkFig16ArenaSerial(b *testing.B) {
	var res arena.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = arena.Run(arena.Options{
			Seed:       1,
			Users:      128,
			Density:    2,
			UsersPerTX: 8,
			TraceLen:   time.Minute,
			Workers:    1,
			Registry:   obs.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log(res.String())
}

// BenchmarkPointingConvergence measures the §4.3 iteration counts.
func BenchmarkPointingConvergence(b *testing.B) {
	var r ConvergenceResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = Convergence(int64(800 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkAblationDirectGPrime measures the footnote-3 failure mode.
func BenchmarkAblationDirectGPrime(b *testing.B) {
	var r DirectGPrimeResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = AblationDirectGPrime(int64(900 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkAblationFixedOrigin measures the footnote-6 distortion effect.
func BenchmarkAblationFixedOrigin(b *testing.B) {
	var r FixedOriginResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = AblationFixedOrigin(int64(1000 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkAblationTrackingRate measures the §6 tracking-frequency claim.
func BenchmarkAblationTrackingRate(b *testing.B) {
	var pts []TrackingRatePoint
	for i := 0; i < b.N; i++ {
		pts = AblationTrackingRate(int64(1100+i), []time.Duration{
			2 * time.Millisecond, 5 * time.Millisecond,
			10 * time.Millisecond, 20 * time.Millisecond,
		})
	}
	b.Log("\n" + RenderTrackingRate(pts))
}

// BenchmarkAblationBeamChoice measures the §5.1 design decision end to end.
func BenchmarkAblationBeamChoice(b *testing.B) {
	var r BeamChoiceResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = AblationBeamChoice(int64(1200 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkExtensionHandover measures the §3 multi-TX occlusion study.
func BenchmarkExtensionHandover(b *testing.B) {
	var r HandoverResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = ExtensionHandover(int64(1300 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkBaselineMmWave measures the §1 mmWave comparison.
func BenchmarkBaselineMmWave(b *testing.B) {
	var r BaselineResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = BaselineMmWave(int64(1400 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}

// BenchmarkEyeSafety evaluates every design against the Class 1 limit.
func BenchmarkEyeSafety(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = EyeSafetyTable()
	}
	b.Log("\n" + out)
}

// BenchmarkFutureWork40G runs the §6 WDM lane analysis.
func BenchmarkFutureWork40G(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = FutureWork40G()
	}
	b.Log("\n" + out)
}

// BenchmarkAblationCouplingImprovement measures the §5.3 received-power
// headroom claim.
func BenchmarkAblationCouplingImprovement(b *testing.B) {
	var r CouplingResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = AblationCouplingImprovement(int64(1500 + i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + r.Render())
}
