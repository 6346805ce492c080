package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
	"cyclops/internal/policy"
)

// RunOptions.Hybrid == nil must be byte-identical to the historical run —
// results AND metrics exposition — exactly like the SolveGate and
// Handover gates. This is the regression pin the acceptance criteria
// name.
func TestRunNilHybridBitIdentical(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: 2 * time.Second}
	run := func(opts RunOptions) RunResult {
		s := oracleSystem(optics.Diverging10G16mm, 5)
		opts.Program = prog
		res, err := s.Run(opts)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	base := run(RunOptions{})
	again := run(RunOptions{Hybrid: nil})
	if !reflect.DeepEqual(again, base) {
		t.Error("nil Hybrid changed the run output")
	}
	if again.Metrics.Exposition() != base.Metrics.Exposition() {
		t.Error("nil Hybrid changed the metrics exposition")
	}
	if base.Hybrid != nil {
		t.Error("non-hybrid run must report Hybrid == nil")
	}
	if strings.Contains(base.Metrics.Exposition(), "cyclops_policy_") ||
		strings.Contains(base.Metrics.Exposition(), "cyclops_mmwave_") {
		t.Error("non-hybrid run leaked policy/mmwave metrics")
	}
}

// A clean hybrid run (no faults, static pose) stays on the primary for
// every tick and delivers full availability on both accountings.
func TestRunHybridCleanStaysPrimary(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 2 * time.Second},
		Hybrid:  &HybridOptions{},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h := res.Hybrid
	if h == nil {
		t.Fatal("hybrid run must report HybridStats")
	}
	if h.Failovers != 0 || h.Readmits != 0 || h.SecondaryTicks != 0 {
		t.Errorf("clean run switched media: %+v", h)
	}
	if h.DeliveredUpFraction != res.UpFraction {
		t.Errorf("clean run delivered %v but FSO was up %v", h.DeliveredUpFraction, res.UpFraction)
	}
	if len(h.SecondaryWindows) == 0 {
		t.Error("shadow mmWave stream measured no windows")
	}
	exp := res.Metrics.Exposition()
	for _, name := range []string{"cyclops_policy_failover_total 0",
		"cyclops_mmwave_retrain_total"} {
		if !strings.Contains(exp, name) {
			t.Errorf("hybrid exposition missing %q", name)
		}
	}
}

// A haze fade deep enough to kill the optical budget must drive exactly
// the advertised sequence: failover onto mmWave during the fade, full
// delivered availability while the FSO side is dark, and re-admission
// after re-lock plus the clear window — with no dwell shorter than the
// clear window (the no-flap acceptance criterion).
func TestRunHybridHazeFailoverAndReadmit(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	sched := &fault.Schedule{Seed: 3, Windows: []fault.Window{{
		Kind:     fault.HazeFade,
		Start:    2 * time.Second,
		End:      8 * time.Second,
		DepthDB:  30,
		Ramp:     time.Second,
		RampDown: 2 * time.Second,
	}}}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 16 * time.Second},
		Faults:  sched,
		Hybrid:  &HybridOptions{},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h := res.Hybrid
	if h == nil {
		t.Fatal("hybrid run must report HybridStats")
	}
	if h.Failovers < 1 || h.Readmits < 1 {
		t.Fatalf("haze fade produced failovers=%d readmits=%d, want ≥1 each", h.Failovers, h.Readmits)
	}
	if h.MinSecondaryDwell < policy.ClearAfter {
		t.Fatalf("min dwell %v below clear window %v — policy flapped", h.MinSecondaryDwell, policy.ClearAfter)
	}
	if h.SecondaryTicks == 0 {
		t.Fatal("no time on secondary despite a failover")
	}
	// Haze does not block mmWave, so delivered availability must beat the
	// FSO link's own up fraction by roughly the outage the fade cost.
	if h.DeliveredUpFraction <= res.UpFraction {
		t.Errorf("delivered %v did not beat FSO-only %v", h.DeliveredUpFraction, res.UpFraction)
	}
	if h.DeliveredUpFraction < 0.98 {
		t.Errorf("delivered availability %v, want ≈1 (mmWave carries through haze)", h.DeliveredUpFraction)
	}
}

// Hybrid runs are deterministic: same seed, same schedule, same result.
func TestRunHybridDeterministic(t *testing.T) {
	run := func() RunResult {
		s := oracleSystem(optics.Diverging10G16mm, 7)
		sched := &fault.Schedule{Seed: 9, Windows: []fault.Window{{
			Kind: fault.HazeFade, Start: time.Second, End: 3 * time.Second,
			DepthDB: 28, Ramp: 500 * time.Millisecond, RampDown: time.Second,
		}}}
		res, err := s.Run(RunOptions{
			Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 5 * time.Second},
			Faults:  sched,
			Hybrid:  &HybridOptions{},
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("hybrid runs with identical inputs diverged")
	}
	if a.Metrics.Exposition() != b.Metrics.Exposition() {
		t.Error("hybrid metric expositions diverged")
	}
}

func TestHybridOptionsValidate(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	if err := (RunOptions{Program: prog, Hybrid: &HybridOptions{}}).Validate(); err != nil {
		t.Errorf("zero hybrid options rejected: %v", err)
	}
}
