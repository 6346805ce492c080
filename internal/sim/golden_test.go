package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// goldenPath is the slot-engine pin: every ChaosTraceResult field and the
// merged metrics exposition of a small corpus under every engine arm.
var goldenPath = filepath.Join("testdata", "engine.golden")

// goldenConfig is a hostile fault mix over the 10 s golden traces: every
// DefaultConfig class with doubled occlusions, plus the haze fades.
func goldenConfig() fault.Config {
	cfg := fault.DefaultConfig()
	cfg.Occlusion.PerMin = 6
	hz := fault.DefaultHazeConfig()
	cfg.Haze, cfg.HazeDepthDB, cfg.HazeRampUp, cfg.HazeRampDown = hz.Haze, hz.HazeDepthDB, hz.HazeRampUp, hz.HazeRampDown
	return cfg
}

// goldenCase is one trace with its fault schedule.
type goldenCase struct {
	tr    trace.Trace
	sched fault.Schedule
}

// goldenCorpus is 24 synthetic 10 s traces with planned schedules, plus
// one adversarial trace: a tracker blackout over report j whose successor
// j+1 carries the same timestamp (a dt = 0 pair inside the swallowed
// slot), next to a stuck galvo, a deep occlusion and a haze fade.
func goldenCorpus() []goldenCase {
	src := trace.Source{Seed: 17, N: 24, Length: 10 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
	cfg := goldenConfig()
	cases := make([]goldenCase, 0, src.N+1)
	for i := 0; i < src.N; i++ {
		tr := src.At(i)
		cases = append(cases, goldenCase{tr, fault.Plan(cfg, 31+7919*int64(i), tr.Duration())})
	}

	base := trace.Generate(23, 4, 4*time.Second, geom.V(0.35, 0.25, 1.0))
	adv := trace.Trace{ID: "adversarial", Samples: append([]trace.Sample(nil), base.Samples...)}
	const j = 120
	adv.Samples[j+1].At = adv.Samples[j].At
	at := adv.Samples[j].At
	cases = append(cases, goldenCase{adv, fault.Schedule{Seed: 5, Windows: []fault.Window{
		{Kind: fault.GalvoStuck, Start: 600 * time.Millisecond, End: 900 * time.Millisecond},
		{Kind: fault.Occlusion, Start: 1100 * time.Millisecond, End: 1400 * time.Millisecond, DepthDB: 30, Ramp: 10 * time.Millisecond},
		{Kind: fault.TrackerBlackout, Start: at, End: at + 5*time.Millisecond},
		{Kind: fault.HazeFade, Start: 2 * time.Second, End: 3500 * time.Millisecond, DepthDB: 25, Ramp: 300 * time.Millisecond, RampDown: 600 * time.Millisecond},
	}}})
	return cases
}

// goldenArm runs one case under one arm into reg, feeding sink (which the
// arm may ignore) with the per-slot verdicts.
type goldenArm struct {
	name string
	run  func(c goldenCase, reg *obs.Registry, sink func(int, bool)) ChaosTraceResult
}

func goldenArms() []goldenArm {
	one := PaperChaos25G()
	three := PaperChaos25G()
	three.TXCount = 3
	three.HandoverDark = 2 * time.Millisecond
	three.StandbyBlockProb = 0.3
	return []goldenArm{
		{"clean", func(c goldenCase, reg *obs.Registry, _ func(int, bool)) ChaosTraceResult {
			return ChaosTraceResult{TraceResult: SimulateTraceObs(c.tr, Paper25G(), reg)}
		}},
		{"chaos-1tx", func(c goldenCase, reg *obs.Registry, sink func(int, bool)) ChaosTraceResult {
			return SimulateTraceChaosSlots(c.tr, one, &c.sched, reg, sink)
		}},
		{"chaos-3tx-rescue", func(c goldenCase, reg *obs.Registry, sink func(int, bool)) ChaosTraceResult {
			return SimulateTraceChaosSlots(c.tr, three, &c.sched, reg, sink)
		}},
		{"hybrid", func(c goldenCase, reg *obs.Registry, _ func(int, bool)) ChaosTraceResult {
			return SimulateTraceHybrid(c.tr, one, HybridSlotParams{}, &c.sched, reg)
		}},
		{"mmwave-only", func(c goldenCase, reg *obs.Registry, _ func(int, bool)) ChaosTraceResult {
			return SimulateTraceMmWave(c.tr, one, &c.sched, reg)
		}},
	}
}

func fmtBits(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// renderGolden runs every arm over the golden corpus and renders the
// results: one line per trace with every ChaosTraceResult field (floats in
// shortest round-trip form, so the text pins them bit for bit), a hash of
// the per-slot sink verdict stream, and the merged exposition.
func renderGolden() string {
	cases := goldenCorpus()
	var b strings.Builder
	for _, arm := range goldenArms() {
		fmt.Fprintf(&b, "== arm %s\n", arm.name)
		h := fnv.New64a()
		sinkCalls := 0
		sink := func(slot int, off bool) {
			v := byte(0)
			if off {
				v = 1
			}
			h.Write([]byte{byte(slot), byte(slot >> 8), byte(slot >> 16), v})
			sinkCalls++
		}
		var merged obs.Snapshot
		for _, c := range cases {
			reg := obs.NewRegistry()
			r := arm.run(c, reg, sink)
			merged = merged.Merge(reg.Snapshot())
			fmt.Fprintf(&b, "%s slots=%d off=%d on=%s hist=%v outages=%d blocked=%d handovers=%d failovers=%d readmits=%d secondary=%d mindwell=%d goodput=%s scattered=%s\n",
				r.ID, r.Slots, r.OffSlots, fmtBits(r.OnFraction), r.FrameHistogram,
				r.Outages, r.BlockedSlots, r.Handovers, r.Failovers, r.Readmits,
				r.SecondarySlots, int64(r.MinSecondaryDwell), fmtBits(r.MeanGoodputGbps),
				fmtBits(r.ScatteredOffFraction(10)))
		}
		fmt.Fprintf(&b, "sink calls=%d fnv64a=%016x\n", sinkCalls, h.Sum64())
		b.WriteString(merged.Exposition())
	}
	return b.String()
}

// TestEngineGolden pins the slot engine byte for byte: the golden file was
// rendered by the four hand-written slot loops this package once had, and
// every arm of the single engine must reproduce it exactly. Never
// regenerate it to make a change pass — a diff here is a behaviour change.
func TestEngineGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := renderGolden()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("engine output differs from %s at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("engine output differs from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
}
