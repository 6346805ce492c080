package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
)

// TestSampledRunMatchesEveryTick runs four loops twice, sampling every
// 5 ms and every tick: a plain hand-held run, a faulted run under the
// supervisor, a two-TX handover run and a hybrid run through a haze fade.
// Sampling every tick reads the exact power on every tick; sampling every
// 5 ms reads only the light verdict on four ticks in five. So every
// consumer of that verdict (the monitor, the supervisor, handover and the
// hybrid policy) must reach the same state: the 5 ms Samples are every
// fifth 1 ms sample, every other result field and every metric but the
// power histogram are equal, the histogram counts the samples, and the
// read counter counts the ticks.
func TestSampledRunMatchesEveryTick(t *testing.T) {
	const seed = 3
	hand := func(d time.Duration) motion.Program {
		return &motion.HandHeld{Base: link.DefaultHeadsetPose(), MaxLinear: 0.6, MaxAngular: 0.7, Len: d, Seed: seed}
	}
	faults := fault.Plan(goldenFaultConfig(), seed+101, 5*time.Second)
	occl := &fault.Schedule{Seed: seed, Windows: []fault.Window{
		occlusionAt(time.Second, time.Second+300*time.Millisecond),
		occlusionAt(3*time.Second, 3*time.Second+200*time.Millisecond),
	}}
	haze := &fault.Schedule{Seed: seed, Windows: []fault.Window{{
		Kind: fault.HazeFade, Start: time.Second, End: 2 * time.Second,
		DepthDB: 30, Ramp: 200 * time.Millisecond, RampDown: 200 * time.Millisecond,
	}}}
	cases := []struct {
		name string
		opts func() RunOptions
		// exercised reports what the run must have done for the
		// comparison to reach the consumer it is there for.
		exercised func(RunResult) error
	}{
		{"handheld", func() RunOptions { return RunOptions{Program: hand(5 * time.Second)} }, func(r RunResult) error {
			return darkSamples(r)
		}},
		{"faulted", func() RunOptions {
			return RunOptions{Program: hand(5 * time.Second), Faults: &faults, Recovery: RecoveryOptions{RestartJitterV: 0.05}}
		}, func(r RunResult) error {
			if r.Outages == 0 {
				return fmt.Errorf("no supervisor outage")
			}
			return nil
		}},
		{"two-tx", func() RunOptions {
			return RunOptions{Program: hand(5 * time.Second), Faults: occl, Handover: &HandoverOptions{
				Standbys: handover.StandbysFor(optics.Diverging10G16mm, seed, handover.RingPositions(1, 1.4)),
			}}
		}, func(r RunResult) error {
			if r.Handovers == 0 {
				return fmt.Errorf("no handover")
			}
			return nil
		}},
		{"hybrid", func() RunOptions {
			return RunOptions{Program: hand(10 * time.Second), Faults: haze, Hybrid: &HybridOptions{}}
		}, func(r RunResult) error {
			if r.Hybrid.Failovers == 0 || r.Hybrid.Readmits == 0 {
				return fmt.Errorf("hybrid policy: %d failovers, %d readmits", r.Hybrid.Failovers, r.Hybrid.Readmits)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(every time.Duration) RunResult {
				opts := tc.opts()
				opts.SampleEvery = every
				res, err := oracleSystem(optics.Diverging10G16mm, seed).Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				ticks := res.Metrics.Counters["cyclops_run_ticks_total"]
				if got := res.Metrics.Counters["cyclops_link_power_reads_total"]; got != ticks {
					t.Errorf("SampleEvery %v: %v power reads over %v ticks", every, got, ticks)
				}
				if got := res.Metrics.Histograms[powerHistogram].Count; got != uint64(len(res.Samples)) {
					t.Errorf("SampleEvery %v: power histogram counts %d reads, %d samples", every, got, len(res.Samples))
				}
				return res
			}
			fine, coarse := run(0), run(5*time.Millisecond)
			if err := tc.exercised(fine); err != nil {
				t.Fatalf("the run does not exercise its consumer: %v", err)
			}
			if want := (len(fine.Samples)-1)/5 + 1; len(coarse.Samples) != want {
				t.Fatalf("%d samples at 5 ms, want %d", len(coarse.Samples), want)
			}
			for i, s := range coarse.Samples {
				if s != fine.Samples[5*i] {
					t.Fatalf("sample %d: %+v at 5 ms, %+v at every tick", i, s, fine.Samples[5*i])
				}
			}
			// DeepEqual follows the Hybrid pointer into the policy's stats.
			fineRest, coarseRest := withoutSamples(fine), withoutSamples(coarse)
			if !reflect.DeepEqual(fineRest, coarseRest) {
				t.Errorf("results differ:\nevery tick %+v\n5 ms       %+v", fineRest, coarseRest)
			}
			fm, cm := withoutPower(fine.Metrics), withoutPower(coarse.Metrics)
			if fm.Exposition() != cm.Exposition() {
				t.Errorf("metrics other than %s differ:\nevery tick\n%s\n5 ms\n%s", powerHistogram, fm.Exposition(), cm.Exposition())
			}
		})
	}
}

const powerHistogram = "cyclops_link_received_power_dbm"

// darkSamples requires at least one sample without light, so the verdict
// was tested on both sides of the sensitivity.
func darkSamples(r RunResult) error {
	for _, s := range r.Samples {
		if !s.PowerOK {
			return nil
		}
	}
	return fmt.Errorf("no dark sample")
}

// withoutSamples is r with its sample record and metrics cleared.
func withoutSamples(r RunResult) RunResult {
	r.Samples, r.Metrics = nil, obs.Snapshot{}
	return r
}

// withoutPower is s without the received-power histogram, the one
// instrument that observes sample ticks only.
func withoutPower(s obs.Snapshot) obs.Snapshot {
	h := make(map[string]obs.HistogramSnapshot, len(s.Histograms))
	for name, v := range s.Histograms {
		if name != powerHistogram {
			h[name] = v
		}
	}
	s.Histograms = h
	return s
}

// TestRunRejectsStandbyOfOtherSensitivity: every TX lights the one RX SFP,
// so a standby built for another receiver sensitivity is refused before
// the run touches any state.
func TestRunRejectsStandbyOfOtherSensitivity(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	_, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second},
		Faults:  &fault.Schedule{Seed: 1, Windows: []fault.Window{occlusionAt(0, 100*time.Millisecond)}},
		Handover: &HandoverOptions{
			Standbys: handover.StandbysFor(optics.Diverging25G, 5, handover.RingPositions(1, 1.4)),
		},
	})
	if err == nil {
		t.Fatal("Run accepted a standby whose receiver sensitivity differs from the primary's")
	}
}
