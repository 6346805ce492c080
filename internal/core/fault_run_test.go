package core

import (
	"reflect"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// A nil Faults field and an empty schedule take the identical code path:
// the run output — samples, windows, metrics exposition — is bit-identical.
func TestRunEmptyScheduleBitIdentical(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: 2 * time.Second}
	run := func(sched *fault.Schedule) RunResult {
		s := oracleSystem(optics.Diverging10G16mm, 5)
		res, err := s.Run(RunOptions{Program: prog, Faults: sched})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	base := run(nil)
	empty := run(&fault.Schedule{Seed: 42})
	if !reflect.DeepEqual(empty, base) {
		t.Error("empty schedule changed the run output")
	}
	if empty.Metrics.Exposition() != base.Metrics.Exposition() {
		t.Error("empty schedule changed the metrics exposition")
	}
	if base.Outages != 0 || base.DegradedTicks != 0 {
		t.Errorf("fault-free run reports outages=%d degraded=%d", base.Outages, base.DegradedTicks)
	}
}

// A mid-run occlusion takes the link down and the supervisor brings it
// back: the run never aborts, availability stays in [0, 1], goodput never
// goes negative, and the outage is matched by a recovery.
func TestRunMidRunOcclusionRecovers(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{{
		Kind:    fault.Occlusion,
		Start:   2 * time.Second,
		End:     2*time.Second + 300*time.Millisecond,
		DepthDB: 40,
		Ramp:    10 * time.Millisecond,
	}}}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:  sched,
	})
	if err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	if res.UpFraction < 0 || res.UpFraction > 1 {
		t.Errorf("UpFraction = %v outside [0, 1]", res.UpFraction)
	}
	for _, w := range res.Windows {
		if w.Gbps < 0 {
			t.Errorf("window at %v has negative goodput %v", w.Start, w.Gbps)
		}
	}
	if res.Outages != 1 {
		t.Errorf("Outages = %d, want 1", res.Outages)
	}
	if res.Reacquired != 1 {
		t.Errorf("Reacquired = %d, want 1 (outage not matched by recovery)", res.Reacquired)
	}
	// The 300 ms window + 3 s re-lock outlasts degradeAfter.
	if res.DegradedTicks == 0 {
		t.Error("long outage never degraded")
	}
	var sawDegraded bool
	for _, smp := range res.Samples {
		if smp.Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("no sample marked Degraded during the outage")
	}
	// Degradation is not the end state: the final sample is healthy.
	if last := res.Samples[len(res.Samples)-1]; last.Degraded || !last.Up {
		t.Errorf("run did not recover: final sample %+v", last)
	}
	// The same faulted run is reproducible bit for bit.
	s2 := oracleSystem(optics.Diverging10G16mm, 5)
	res2, err := s2.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:  sched,
	})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(res2, res) {
		t.Error("faulted run not reproducible")
	}
}

// A run that ends inside an outage keeps the invariant "every outage is
// matched by a recovery or an explicit Degraded terminal sample".
func TestRunEndsMidOutageMarksTerminalDegraded(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{{
		Kind:    fault.Occlusion,
		Start:   2 * time.Second,
		End:     2*time.Second + 300*time.Millisecond,
		DepthDB: 40,
		Ramp:    10 * time.Millisecond,
	}}}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 3 * time.Second},
		Faults:  sched,
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Outages != 1 || res.Reacquired != 0 {
		t.Fatalf("outages=%d reacquired=%d, want 1/0", res.Outages, res.Reacquired)
	}
	if len(res.Samples) == 0 || !res.Samples[len(res.Samples)-1].Degraded {
		t.Error("terminal sample not marked Degraded for an unrecovered outage")
	}
}

// Injected tracker and galvo faults degrade the run without aborting it,
// and the fault-window metrics surface in the run's exposition.
func TestRunTrackerAndGalvoFaults(t *testing.T) {
	prog := &motion.HandHeld{
		Base: link.DefaultHeadsetPose(), MaxLinear: 0.2, MaxAngular: 0.3,
		Len: 4 * time.Second, Seed: 2,
	}
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		{Kind: fault.TrackerBlackout, Start: 500 * time.Millisecond, End: 700 * time.Millisecond},
		{Kind: fault.TrackerFreeze, Start: 1200 * time.Millisecond, End: 1400 * time.Millisecond},
		{Kind: fault.GalvoStuck, Start: 2 * time.Second, End: 2200 * time.Millisecond},
		{Kind: fault.SolverDiverge, Start: 2800 * time.Millisecond, End: 2900 * time.Millisecond},
		{Kind: fault.GalvoSaturation, Start: 3300 * time.Millisecond, End: 3500 * time.Millisecond, Limit: 0.5},
	}}
	s := oracleSystem(optics.Diverging10G16mm, 5)
	res, err := s.Run(RunOptions{Program: prog, Faults: sched})
	if err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	if res.UpFraction < 0 || res.UpFraction > 1 {
		t.Errorf("UpFraction = %v outside [0, 1]", res.UpFraction)
	}
	// The divergence window forces at least one solve failure.
	if res.PointFailures == 0 {
		t.Error("SolverDiverge window produced no pointing failures")
	}
	// Blackout drops reports: fewer solves than the fault-free twin.
	s2 := oracleSystem(optics.Diverging10G16mm, 5)
	base, err := s2.Run(RunOptions{Program: prog})
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	if res.Points >= base.Points {
		t.Errorf("blackout did not drop reports: %d faulted vs %d base solves", res.Points, base.Points)
	}
	exp := res.Metrics.Exposition()
	for _, want := range []string{"cyclops_supervisor_tracking_seconds", "cyclops_outage_total"} {
		if !contains(exp, want) {
			t.Errorf("faulted run exposition missing %q", want)
		}
	}
}

// Malformed fault windows are rejected by options validation.
// TestRunOptionsValidateUnsortedFaults: windows out of Start order are
// rejected — a schedule lookup stops at the first window that starts
// after the instant, so the earlier-starting second window would never
// be seen.
func TestRunOptionsValidateUnsortedFaults(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	reversed := fault.Schedule{Windows: []fault.Window{
		{Kind: fault.GalvoStuck, Start: 600 * time.Millisecond, End: 800 * time.Millisecond},
		{Kind: fault.Occlusion, Start: 100 * time.Millisecond, End: 700 * time.Millisecond, DepthDB: 30},
	}}
	if err := (RunOptions{Program: prog, Faults: &reversed}).Validate(); err == nil {
		t.Fatal("unsorted fault schedule accepted")
	}
	sorted := fault.Schedule{Windows: []fault.Window{reversed.Windows[1], reversed.Windows[0]}}
	if err := (RunOptions{Program: prog, Faults: &sorted}).Validate(); err != nil {
		t.Fatalf("sorted fault schedule rejected: %v", err)
	}
}

func TestRunOptionsValidateFaults(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	bad := []fault.Schedule{
		{Windows: []fault.Window{{Kind: fault.Occlusion, Start: -time.Second, End: time.Second}}},
		{Windows: []fault.Window{{Kind: fault.Occlusion, Start: 2 * time.Second, End: time.Second}}},
	}
	for i := range bad {
		s := oracleSystem(optics.Diverging10G16mm, 1)
		if _, err := s.Run(RunOptions{Program: prog, Faults: &bad[i]}); err == nil {
			t.Errorf("case %d: malformed window accepted", i)
		}
	}
}
