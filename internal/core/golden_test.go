package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// systemGoldenPath pins the closed loop: calibration and core.Run, every
// seeded draw of the plant, tracker, calibration rigs, supervisor and
// standby plants feeds it.
var systemGoldenPath = filepath.Join("testdata", "system.golden")

// systemGoldenSeeds are the pinned system seeds.
var systemGoldenSeeds = []int64{1, 20221}

const systemGoldenLen = 5 * time.Second

// fmtBits renders a float as its bit pattern (the pin) next to its
// shortest decimal form (for the reader).
func fmtBits(f float64) string {
	return fmt.Sprintf("%016x(%s)", math.Float64bits(f), fmt.Sprint(f))
}

// fieldBits renders every float64, integer and bool reachable through v's
// exported and unexported struct fields, arrays and slices in declaration
// order: floats by fmtBits, integers and bools in decimal and true/false.
func fieldBits(v any) string {
	var parts []string
	var walk func(prefix string, rv reflect.Value)
	walk = func(prefix string, rv reflect.Value) {
		switch rv.Kind() {
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				walk(prefix+"."+rv.Type().Field(i).Name, rv.Field(i))
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < rv.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", prefix, i), rv.Index(i))
			}
		case reflect.Float64:
			parts = append(parts, prefix[1:]+"="+fmtBits(rv.Float()))
		case reflect.Int, reflect.Int64:
			parts = append(parts, fmt.Sprintf("%s=%d", prefix[1:], rv.Int()))
		case reflect.Bool:
			parts = append(parts, fmt.Sprintf("%s=%t", prefix[1:], rv.Bool()))
		}
	}
	walk("", reflect.ValueOf(v))
	return strings.Join(parts, " ")
}

// hashSamples folds every field of every sample into one FNV-64a digest.
func hashSamples(ss []Sample) uint64 {
	h := fnv.New64a()
	for _, s := range ss {
		fmt.Fprintf(h, "%d %x %t %t %x %x %t;", int64(s.At), math.Float64bits(s.PowerDBm),
			s.Up, s.PowerOK, math.Float64bits(s.LinSpeed), math.Float64bits(s.AngSpeed), s.Degraded)
	}
	return h.Sum64()
}

// renderRun renders one RunResult: every scalar field by bit pattern, a
// digest of the samples, every 50 ms window and the run's exposition.
func renderRun(b *strings.Builder, name string, res RunResult) {
	fmt.Fprintf(b, "-- run %s\n", name)
	fmt.Fprintf(b, "samples=%d fnv64a=%016x\n", len(res.Samples), hashSamples(res.Samples))
	fmt.Fprintf(b, "disconnections=%d up=%s points=%d failures=%d iters=%d gprime=%d skipped=%d latency=%d outages=%d reacquired=%d degraded=%d handovers=%d\n",
		res.Disconnections, fmtBits(res.UpFraction), res.Points, res.PointFailures,
		res.TotalPointIters, res.TotalGPrimeIters, res.SolvesSkipped, int64(res.MeanTPLatency),
		res.Outages, res.Reacquired, res.DegradedTicks, res.Handovers)
	for _, w := range res.Windows {
		fmt.Fprintf(b, "window %d %s\n", int64(w.Start), fmtBits(w.Gbps))
	}
	b.WriteString(res.Metrics.Exposition())
}

// goldenHandHeld is the 5 s hand-held program every golden run follows.
func goldenHandHeld(seed int64) motion.Program {
	return &motion.HandHeld{Base: link.DefaultHeadsetPose(), MaxLinear: 0.6, MaxAngular: 0.7, Len: systemGoldenLen, Seed: seed}
}

// goldenFaultConfig is DefaultConfig with solver divergence, blackouts
// and occlusions frequent enough that a 5 s run draws the supervisor's
// backoff jitter and restart perturbation at both golden seeds.
func goldenFaultConfig() fault.Config {
	cfg := fault.DefaultConfig()
	cfg.Diverge.PerMin = 60
	cfg.Blackout.PerMin = 12
	cfg.Occlusion.PerMin = 12
	return cfg
}

// renderSystemGolden calibrates a 10G system per seed and renders the
// learned models, the calibration report and four runs: hand-held on the
// learned models, faulted with recovery, and single- and two-TX under
// one occlusion schedule (the second TX is a NewPlantAt standby).
func renderSystemGolden(t *testing.T) string {
	var b strings.Builder
	for _, seed := range systemGoldenSeeds {
		fmt.Fprintf(&b, "== seed %d\n", seed)
		s := NewSystem(optics.Diverging10G16mm, seed)
		rep, err := s.Calibrate()
		if err != nil {
			t.Fatalf("seed %d: calibrate: %v", seed, err)
		}
		fmt.Fprintf(&b, "KTX %s\nKRX %s\nMap %s\n", fieldBits(s.KTX), fieldBits(s.KRX), fieldBits(s.Map))
		fmt.Fprintf(&b, "report %s\nreport %v\n", fieldBits(rep), rep)

		run := func(name string, s *System, opts RunOptions) {
			res, err := s.Run(opts)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			renderRun(&b, name, res)
		}
		run("handheld", s, RunOptions{Program: goldenHandHeld(seed)})

		faults := fault.Plan(goldenFaultConfig(), seed+101, systemGoldenLen)
		run("faulted", oracleSystem(optics.Diverging10G16mm, seed), RunOptions{
			Program: goldenHandHeld(seed), Faults: &faults,
			Recovery: RecoveryOptions{RestartJitterV: 0.05},
		})

		occl := &fault.Schedule{Seed: seed, Windows: []fault.Window{
			occlusionAt(time.Second, time.Second+300*time.Millisecond),
			occlusionAt(3*time.Second, 3*time.Second+200*time.Millisecond),
		}}
		run("single-tx", oracleSystem(optics.Diverging10G16mm, seed), RunOptions{
			Program: goldenHandHeld(seed), Faults: occl,
		})
		standbys := handover.StandbysFor(optics.Diverging10G16mm, seed, handover.RingPositions(1, 1.4))
		run("two-tx", oracleSystem(optics.Diverging10G16mm, seed), RunOptions{
			Program: goldenHandHeld(seed), Faults: occl,
			Handover: &HandoverOptions{Standbys: standbys},
		})
	}
	return b.String()
}

// TestSystemGolden pins calibration and core.Run byte for byte. Never
// regenerate it to make a change pass — a diff here is a behaviour change.
func TestSystemGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates two systems")
	}
	want, err := os.ReadFile(systemGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := renderSystemGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("system output differs from %s at line %d:\ngot:  %s\nwant: %s", systemGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("system output differs from %s: %d lines, want %d", systemGoldenPath, len(gl), len(wl))
}
