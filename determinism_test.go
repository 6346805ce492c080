package cyclops

// The determinism suite: the parallel experiment engine must produce
// bit-identical results for any worker count. These tests pin that
// contract at the top level — the full Fig 16 corpus pipeline (500 trace
// generations + 500 slot-model simulations) — both with explicit worker
// counts and through the process-wide default that cyclops-bench's
// -parallel flag sets.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/parallel"
)

func TestFig16WorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus ×3 in -short mode")
	}
	serial := Fig16Workers(3, 1)
	for _, workers := range []int{4, 8} {
		got := Fig16Workers(3, workers)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Fig16Result differs from serial run", workers)
		}
	}
}

// TestFig16HandoverWorkerDeterminism pins the handover sweep to the same
// contract: the per-episode rescue draws are seeded per trace, so the
// rescue/outage split — and with it every availability figure — must be
// bit-identical at any worker count. A trimmed grid (the harsh occlusion
// corner, 1 and 2 TXs) keeps the race-detector run affordable while
// exercising the identical pipeline as the full sweep.
func TestFig16HandoverWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus ×3 in -short mode")
	}
	grid := fig16HandoverGrid{
		txCounts: []int{1, 2},
		spacings: []float64{1.4},
		occl: []struct {
			rate float64
			dur  time.Duration
		}{{2, 500 * time.Millisecond}},
	}
	serial, err := fig16HandoverRun(3, 1, grid)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(serial.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(serial.Cells))
	}
	if serial.Cells[1].Handovers == 0 {
		t.Fatal("2-TX cell fired no handovers — test is vacuous")
	}
	for _, workers := range []int{2, 4} {
		got, err := fig16HandoverRun(3, workers, grid)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Fig16HandoverResult differs from serial run", workers)
		}
	}
}

func TestFig16DefaultWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus ×2 in -short mode")
	}
	// The -parallel flag path: SetDefaultWorkers must not change results.
	serial := Fig16Workers(3, 1)
	parallel.SetDefaultWorkers(6)
	defer parallel.SetDefaultWorkers(0)
	if got := Fig16(3); !reflect.DeepEqual(got, serial) {
		t.Error("Fig16 under SetDefaultWorkers(6) differs from serial run")
	}
}

// TestFig16MetricsDeterminism pins the observability side of the
// contract: the corpus's merged metrics snapshot — rendered all the way
// to Prometheus text — must be byte-identical for any worker count.
// (The process-default registry is exempt: it aggregates concurrent
// work. The per-corpus snapshot is the deterministic surface.)
func TestFig16MetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus ×4 in -short mode")
	}
	serial := Fig16Workers(3, 1).Corpus.Metrics.Exposition()
	if serial == "" {
		t.Fatal("serial corpus produced an empty metrics exposition")
	}
	for _, workers := range []int{4, 8} {
		got := Fig16Workers(3, workers).Corpus.Metrics.Exposition()
		if got != serial {
			t.Errorf("workers=%d: metrics exposition differs from serial run", workers)
		}
	}
	parallel.SetDefaultWorkers(6)
	defer parallel.SetDefaultWorkers(0)
	if got := Fig16(3).Corpus.Metrics.Exposition(); got != serial {
		t.Error("metrics exposition under SetDefaultWorkers(6) differs from serial run")
	}
}

// TestTable3MetricsDeterminism: Table 3's six calibrate-and-run rigs run
// in parallel, and each publishes its calibration and run metrics only
// once all are done, in rig order. The float sums in the target registry
// (cyclops_run_repoint_latency_seconds_sum among them) therefore fold in
// one order, so the exposition is byte-identical to a serial run on every
// repeated parallel run, not only when the rigs happen to finish in order.
func TestTable3MetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("six calibrations ×3 in -short mode")
	}
	defer parallel.SetDefaultWorkers(0)
	run := func(workers int) string {
		parallel.SetDefaultWorkers(workers)
		reg := obs.NewRegistry()
		if _, err := table3(1, reg); err != nil {
			t.Fatal(err)
		}
		return reg.Exposition()
	}
	serial := run(1)
	if !strings.Contains(serial, "cyclops_run_repoint_latency_seconds_sum ") {
		t.Fatalf("serial Table 3 exposition lacks the repoint latency histogram:\n%s", serial)
	}
	for i := 0; i < 2; i++ {
		if got := run(2); got != serial {
			t.Fatalf("parallel run %d: exposition differs from serial run:\n%s", i, firstLineDiff(got, serial))
		}
	}
}

// firstLineDiff renders the first differing line of two expositions.
func firstLineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return "parallel: " + gl[i] + "\nserial:   " + wl[i]
		}
	}
	return "line counts differ"
}
