package cyclops

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
)

// fig16HybridTrim is the CI-sized sweep: the identical pipeline on a
// corpus small enough to run under -race.
var fig16HybridTrim = fig16HybridGrid{n: 32, length: 20 * time.Second}

func fig16HybridCell(t *testing.T, r Fig16HybridResult, sched, medium string) Fig16HybridCell {
	t.Helper()
	for _, c := range r.Cells {
		if c.Schedule == sched && c.Medium == medium {
			return c
		}
	}
	t.Fatalf("no cell %s/%s", sched, medium)
	return Fig16HybridCell{}
}

// The sweep, and the metrics it publishes, are bit-identical at any
// worker count — the acceptance criterion the corpus engine's shard-order
// fold guarantees. Each worker count runs into its own fresh registry.
func TestFig16HybridWorkerDeterminism(t *testing.T) {
	run := func(workers int) (Fig16HybridResult, string) {
		reg := obs.NewRegistry()
		r, err := fig16HybridRun(5, workers, fig16HybridTrim, reg)
		if err != nil {
			t.Fatalf("fig16HybridRun(workers=%d): %v", workers, err)
		}
		return r, reg.Exposition()
	}
	base, baseExp := run(1)
	if !strings.Contains(baseExp, "\ncyclops_policy_failover_total ") {
		t.Fatalf("exposition lacks cyclops_policy_failover_total:\n%s", baseExp)
	}
	for _, w := range []int{2, 4} {
		got, exp := run(w)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d result differs from serial", w)
		}
		if exp != baseExp {
			t.Fatalf("workers=%d exposition differs from serial:\n%s\nvs\n%s", w, exp, baseExp)
		}
	}
	if base.Render() == "" {
		t.Fatal("empty render")
	}
}

// On the haze ramp the hybrid arm must beat FSO-only availability by at
// least five points with no policy flap — the recorded-sweep acceptance
// criteria — while the occlusion storm (physical, blocks both media)
// keeps the three arms honest.
func TestFig16HybridHazeSeparation(t *testing.T) {
	r, err := fig16HybridRun(5, 0, fig16HybridTrim, obs.NewRegistry())
	if err != nil {
		t.Fatalf("fig16HybridRun: %v", err)
	}
	if len(r.Cells) != 9 {
		t.Fatalf("got %d cells, want 9", len(r.Cells))
	}

	fso := fig16HybridCell(t, r, "haze-ramp", "fso")
	mm := fig16HybridCell(t, r, "haze-ramp", "mmwave")
	hy := fig16HybridCell(t, r, "haze-ramp", "hybrid")
	if fso.OnScheduleHealthy() {
		t.Fatalf("haze ramp barely hurt FSO (mean %v) — scenario too weak", fso.MeanAvailability)
	}
	if hy.MeanAvailability < fso.MeanAvailability+0.05 {
		t.Fatalf("hybrid %v did not beat FSO-only %v by 5 points",
			hy.MeanAvailability, fso.MeanAvailability)
	}
	if mm.MeanAvailability != 1 {
		t.Errorf("haze blocked the mmWave-only arm: %v", mm.MeanAvailability)
	}
	if hy.Failovers < 1 || hy.Readmits < 1 {
		t.Fatalf("haze hybrid failovers=%d readmits=%d, want ≥1 each", hy.Failovers, hy.Readmits)
	}
	if hy.MinSecondaryDwell < 500*time.Millisecond {
		t.Fatalf("min secondary dwell %v below the 500 ms clear window — policy flapped",
			hy.MinSecondaryDwell)
	}
	if fso.Failovers != 0 || mm.Failovers != 0 {
		t.Error("single-medium arms reported failovers")
	}

	// Clean environment: every arm fully available on the static-origin
	// quantiles' upper end, FSO goodput ≈5× mmWave.
	cleanFSO := fig16HybridCell(t, r, "clean", "fso")
	cleanHy := fig16HybridCell(t, r, "clean", "hybrid")
	if cleanHy.Failovers != 0 || cleanHy.SecondaryFraction != 0 {
		t.Errorf("clean hybrid arm left the primary: %+v", cleanHy)
	}
	if cleanHy.MeanAvailability != cleanFSO.MeanAvailability {
		t.Errorf("clean hybrid availability %v differs from FSO %v",
			cleanHy.MeanAvailability, cleanFSO.MeanAvailability)
	}
}

// OnScheduleHealthy reports whether the cell kept ≥95% availability — a
// test helper for "did the fault schedule actually bite".
func (c Fig16HybridCell) OnScheduleHealthy() bool {
	return c.MeanAvailability >= 0.95
}
