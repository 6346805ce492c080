package core

import (
	"reflect"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// occlusionAt builds a deep occlusion window on a schedule.
func occlusionAt(start, end time.Duration) fault.Window {
	return fault.Window{
		Kind: fault.Occlusion, Start: start, End: end,
		DepthDB: 40, Ramp: 10 * time.Millisecond,
	}
}

// A primary-path occlusion with a clear standby is rescued by one
// make-before-break switch: the monitor's holdover rides through the ~2 ms
// slew, so the SFP never unlocks and the 3 s re-lock is never paid.
func TestRunHandoverRescuesOcclusion(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(2*time.Second, 2*time.Second+300*time.Millisecond),
	}}
	res, err := s.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys},
	})
	if err != nil {
		t.Fatalf("handover run aborted: %v", err)
	}
	if res.Handovers < 2 {
		t.Errorf("Handovers = %d, want ≥ 2 (switch out + failback)", res.Handovers)
	}
	// The whole point: the same occlusion that costs the single-TX run a
	// multi-second outage (TestRunMidRunOcclusionRecovers) never unlocks
	// the SFP here.
	if res.Outages != 0 {
		t.Errorf("Outages = %d, want 0 (handover should pre-empt the outage)", res.Outages)
	}
	if res.UpFraction != 1 {
		t.Errorf("UpFraction = %v, want 1 (holdover must carry the switch)", res.UpFraction)
	}
	if res.DegradedTicks != 0 {
		t.Errorf("DegradedTicks = %d, want 0", res.DegradedTicks)
	}
	if last := res.Samples[len(res.Samples)-1]; !last.Up || !last.PowerOK {
		t.Errorf("run did not end healthy: %+v", last)
	}
	// Failback restored the primary, and Run's defer restored s.Plant.
	exp := res.Metrics.Exposition()
	for _, want := range []string{"cyclops_handover_total 2", "cyclops_handover_seconds_count"} {
		if !contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Bit-reproducible, like every faulted run.
	s2 := oracleSystem(optics.Diverging10G16mm, 5)
	standbys2 := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	res2, err := s2.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys2},
	})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(res2, res) {
		t.Error("handover run not reproducible")
	}
}

// Run restores the System's plant (the primary) after a handover run, even
// when the run ends while a standby is active.
func TestRunRestoresPrimaryPlant(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	primary := s.Plant
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	// Occlusion runs to the end of the program: no failback.
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(1*time.Second, 4*time.Second),
	}}
	res, err := s.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 3 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys},
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Handovers != 1 {
		t.Errorf("Handovers = %d, want 1 (no failback before the run ends)", res.Handovers)
	}
	if s.Plant != primary {
		t.Error("System.Plant not restored to the primary after the run")
	}
	if standbys[0].AttenuationDB() != 0 {
		t.Error("standby fault surface not cleaned after the run")
	}
}

// When every TX path is blocked there is nothing to switch to: no handover
// fires, and the episode runs through the ordinary outage machinery
// (REACQUIRING → DEGRADED), exactly like a single-TX run.
func TestRunHandoverAllPathsBlocked(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	win := []fault.Window{occlusionAt(2*time.Second, 2*time.Second+300*time.Millisecond)}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:  &fault.Schedule{Seed: 1, Windows: win},
		Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{Seed: 2, Windows: win}},
		},
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Handovers != 0 {
		t.Errorf("Handovers = %d, want 0 (no clear candidate existed)", res.Handovers)
	}
	if res.Outages != 1 {
		t.Errorf("Outages = %d, want 1", res.Outages)
	}
	if res.DegradedTicks == 0 {
		t.Error("all-blocked episode never degraded")
	}
}

// A tracking report that lands while a switch's pre-pointed command is
// still in flight must not re-issue it: re-pointing restarts the slew past
// the settle window and costs an extra dark tick. Fixture: a hard primary
// occlusion starting at every offset across three 12–13 ms report
// periods, so some reports fall inside the ≈1.8 ms slew. Every offset must
// cost the same 3 dark ticks: two while switchAfter debounces, one of slew.
func TestRunHandoverSlewReportKeepsSwitch(t *testing.T) {
	const seed = 12
	for off := time.Duration(0); off < 40; off++ {
		start := 100*time.Millisecond + off*time.Millisecond
		s := oracleSystem(optics.Diverging10G16mm, seed)
		res, err := s.Run(RunOptions{
			Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 200 * time.Millisecond},
			Faults: &fault.Schedule{Seed: 1, Windows: []fault.Window{
				{Kind: fault.Occlusion, Start: start, End: time.Second, DepthDB: 40},
			}},
			Handover: &HandoverOptions{
				Standbys: handover.StandbysFor(optics.Diverging10G16mm, seed, handover.RingPositions(1, 1.4)),
			},
		})
		if err != nil {
			t.Fatalf("offset %v: %v", off, err)
		}
		dark := 0
		for _, smp := range res.Samples {
			if !smp.PowerOK {
				dark++
			}
		}
		if dark != 3 || res.Handovers != 1 {
			t.Errorf("occlusion at %v: %d dark samples, %d handovers; want 3 and 1 (a report re-issued the switch)",
				start, dark, res.Handovers)
		}
	}
}

// TestRunHandoverNoFlapDuringSlew pins the slew-window debounce: the forced
// darkness while the mirrors slew to a new TX must not start the dark
// clock, or a switchAfter below the ≈1.8 ms realignment latency flaps the
// controller off the TX it just switched to. Fixture: the primary is
// occluded over [5, 30) ms; the chosen standby catches a one-tick blip at
// [8, 9) ms, just after its slew. A dark clock armed during the slew
// matures on that blip and flaps the controller on to the second standby
// (three handovers and an outage with the carve-out removed).
func TestRunHandoverNoFlapDuringSlew(t *testing.T) {
	const seed = 10
	s := oracleSystem(optics.Diverging10G16mm, seed)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, seed, []geom.Vec3{
		{X: 1.2, Y: 0.8, Z: link.CeilingHeight},
		{X: -1.2, Y: 0.8, Z: link.CeilingHeight},
	})
	hard := func(start, end time.Duration) *fault.Schedule {
		return &fault.Schedule{Seed: 1, Windows: []fault.Window{
			{Kind: fault.Occlusion, Start: start, End: end, DepthDB: 40},
		}}
	}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 30 * time.Millisecond},
		Faults:  hard(5*time.Millisecond, 30*time.Millisecond),
		Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{hard(8*time.Millisecond, 9*time.Millisecond), nil},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Handovers != 1 {
		t.Errorf("Handovers = %d, want 1 (slew darkness flapped the controller)", res.Handovers)
	}
	if res.Outages != 0 {
		t.Errorf("Outages = %d, want 0", res.Outages)
	}
}

// Handover option validation: standbys are required, a fault schedule must
// be armed, and StandbyFaults must match the standby count and pass the
// primary schedule's window checks (an unsorted standby schedule would
// have its cursor silently drop windows).
func TestRunOptionsValidateHandover(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 1, handover.RingPositions(1, 1.4))
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(100*time.Millisecond, 200*time.Millisecond),
	}}
	cases := []struct {
		name string
		opts RunOptions
	}{
		{"no standbys", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{}}},
		{"no faults", RunOptions{Program: prog, Handover: &HandoverOptions{Standbys: standbys}}},
		{"mismatched standby faults", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{}, {}},
		}}},
		{"unsorted standby faults", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys: standbys,
			StandbyFaults: []*fault.Schedule{{Seed: 2, Windows: []fault.Window{
				occlusionAt(300*time.Millisecond, 400*time.Millisecond),
				occlusionAt(100*time.Millisecond, 200*time.Millisecond),
			}}},
		}}},
		{"standby window ends before it starts", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{Seed: 2, Windows: []fault.Window{occlusionAt(200*time.Millisecond, 100*time.Millisecond)}}},
		}}},
		{"negative standby window start", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{Seed: 2, Windows: []fault.Window{occlusionAt(-time.Millisecond, 100*time.Millisecond)}}},
		}}},
	}
	for _, c := range cases {
		s := oracleSystem(optics.Diverging10G16mm, 1)
		if _, err := s.Run(c.opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// The closed-interval fencepost of core.Run is deliberate and load-bearing:
// a run of duration D at tick T produces D/T + 1 samples, landing on both
// endpoints. internal/sim uses the half-open D/T convention instead — do
// not unify them; every published RunResult was produced by this loop
// shape.
func TestRunClosedLoopConvention(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 3)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Samples); got != 101 {
		t.Fatalf("samples = %d, want 101 (closed [0, dur] at 1 ms)", got)
	}
	if first := res.Samples[0].At; first != 0 {
		t.Errorf("first sample at %v, want 0", first)
	}
	if last := res.Samples[100].At; last != 100*time.Millisecond {
		t.Errorf("last sample at %v, want 100ms (the closed endpoint)", last)
	}
}
