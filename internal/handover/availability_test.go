package handover_test

import (
	"testing"
	"time"

	"cyclops/internal/core"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// TestHandoverImprovesAvailability is the §3 claim: under periodic
// occlusion of the primary path, handover to a second TX recovers most of
// the lost time. The occlusion blocks the primary for the second half of
// each 20 s cycle; the standby path stays clear.
func TestHandoverImprovesAvailability(t *testing.T) {
	const seed = 8
	sched := &fault.Schedule{Seed: seed}
	for start := 10 * time.Second; start < 40*time.Second; start += 20 * time.Second {
		sched.Windows = append(sched.Windows, fault.Window{
			Kind: fault.Occlusion, Start: start, End: start + 10*time.Second,
			DepthDB: 40, Ramp: 10 * time.Millisecond,
		})
	}
	run := func(ho *core.HandoverOptions) (light float64, res core.RunResult) {
		s := core.NewSystem(optics.Diverging10G16mm, seed)
		s.UseOracleModels()
		res, err := s.Run(core.RunOptions{
			Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 40 * time.Second},
			Faults:   sched,
			Handover: ho,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, smp := range res.Samples {
			if smp.PowerOK {
				n++
			}
		}
		return float64(n) / float64(len(res.Samples)), res
	}

	baseLight, _ := run(nil)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, seed,
		[]geom.Vec3{{X: 1.2, Y: 0.8, Z: link.CeilingHeight}})
	handLight, hand := run(&core.HandoverOptions{Standbys: standbys})

	// Baseline: blocked ~half the time.
	if baseLight > 0.65 {
		t.Errorf("baseline light fraction %.2f — occluder ineffective", baseLight)
	}
	// Handover: recovers nearly everything.
	if handLight < baseLight+0.25 {
		t.Errorf("handover light %.2f vs baseline %.2f — no real improvement", handLight, baseLight)
	}
	if hand.Handovers == 0 {
		t.Error("no handovers executed")
	}
	// With a clear standby the receiver is never dark for long.
	if handLight < 0.99 {
		t.Errorf("handover run dark %.2f of the time — bad fixture", 1-handLight)
	}
}
