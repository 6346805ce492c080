package arena

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"cyclops/internal/handover"
	"cyclops/internal/obs"
)

// testOpts is a small but non-degenerate venue: 32 users over 16 cells,
// short traces, hermetic registry.
func testOpts(workers int) Options {
	return Options{
		Seed:     7,
		Users:    32,
		Density:  0.5,
		TraceLen: 10 * time.Second,
		Workers:  workers,
		Registry: obs.NewRegistry(),
	}
}

func TestLayoutPartition(t *testing.T) {
	for _, users := range []int{1, 5, 16, 33, 100} {
		l := NewLayout(3, users, 0.5, 2.0)
		covered := 0
		for c := 0; c < l.Cells(); c++ {
			lo, hi := l.CellUsers(c)
			if hi < lo {
				t.Fatalf("users=%d cell %d: inverted range [%d,%d)", users, c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if l.CellOf(i) != c {
					t.Fatalf("users=%d: CellOf(%d)=%d but CellUsers(%d) claims it", users, i, l.CellOf(i), c)
				}
			}
			covered += hi - lo
		}
		if covered != users {
			t.Fatalf("users=%d: partition covers %d", users, covered)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(3, 32, 0.5, 2.0)
	if l.NX != 4 || l.NY != 4 {
		t.Fatalf("8x8m venue at 2m pitch gridded %dx%d", l.NX, l.NY)
	}
	for i := 0; i < l.Users; i++ {
		h := l.Home(i)
		if h.X < -l.W/2 || h.X > l.W/2 || h.Y < -l.D/2 || h.Y > l.D/2 {
			t.Errorf("user %d home %v outside the venue", i, h)
		}
		c := l.CellOf(i)
		tx := l.TXPos(c)
		if dx := h.X - tx.X; dx < -l.CellW/2 || dx > l.CellW/2 {
			t.Errorf("user %d home %v outside cell %d (tx %v)", i, h, c, tx)
		}
	}
	// Corner, edge, and interior cells see 2, 3, and 4 standby TXs.
	if got := l.Standbys(0); got != 2 {
		t.Errorf("corner cell standbys = %d", got)
	}
	if got := l.Standbys(1); got != 3 {
		t.Errorf("edge cell standbys = %d", got)
	}
	if got := l.Standbys(5); got != 4 {
		t.Errorf("interior cell standbys = %d", got)
	}
}

func TestNeighborsBoundedAndOrdered(t *testing.T) {
	l := NewLayout(3, 64, 1.0, 2.0)
	for i := 0; i < l.Users; i++ {
		ns := l.Neighbors(i)
		if len(ns) > MaxNeighbors {
			t.Fatalf("user %d has %d neighbors", i, len(ns))
		}
		home := l.Home(i)
		last := -1.0
		for _, j := range ns {
			if j == i {
				t.Fatalf("user %d neighbors itself", i)
			}
			d := l.Home(j).Dist(home)
			if d > NeighborRadius {
				t.Fatalf("user %d neighbor %d at %.2fm", i, j, d)
			}
			if d < last {
				t.Fatalf("user %d neighbors not sorted by distance", i)
			}
			last = d
		}
	}
}

func TestOcclusionWindowsFire(t *testing.T) {
	// A user surrounded at density 1.0 must see some occlusion over a
	// minute; windows must be ordered and within the trace (plus the
	// trailing sampling step).
	l := NewLayout(7, 64, 1.0, 2.0)
	total := 0
	for i := 0; i < l.Users; i++ {
		tr := l.Trace(i, time.Minute)
		tx := l.TXPos(l.CellOf(i))
		var occs []handover.Occluder
		for _, j := range l.Neighbors(i) {
			pair := l.Occluder(j)
			occs = append(occs, pair[0], pair[1])
		}
		wins := OcclusionWindows(tx, tr, occs)
		prev := time.Duration(-1)
		for _, w := range wins {
			if w.Start < prev || w.End <= w.Start {
				t.Fatalf("user %d: malformed window %+v", i, w)
			}
			prev = w.End
			if w.End > tr.Duration()+OcclusionStep {
				t.Fatalf("user %d: window past trace end: %+v", i, w)
			}
		}
		total += len(wins)
	}
	if total == 0 {
		t.Fatal("no occlusion windows anywhere at density 1.0 — the crowd model is inert")
	}
}

func TestRunWorkerDeterminism(t *testing.T) {
	serial, err := Run(testOpts(1))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Handovers == 0 && serial.Outages == 0 {
		t.Fatal("no occlusion events fired — determinism test is vacuous")
	}
	if serial.Served == 0 || serial.Slots == 0 {
		t.Fatalf("empty run: %+v", serial.Aggregate)
	}
	for _, workers := range []int{2, 4} {
		got, err := Run(testOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Result differs from serial", workers)
		}
		if got.Metrics.Exposition() != serial.Metrics.Exposition() {
			t.Errorf("workers=%d: metrics exposition differs from serial", workers)
		}
	}
}

func TestRunResume(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	for _, window := range []int{1, 3, 7} {
		ck := Checkpoint{}
		for !ck.Done {
			opts := testOpts(2)
			opts.Resume = ck
			opts.MaxCells = window
			part, err := Run(opts)
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			ck = part.Checkpoint
		}
		if !reflect.DeepEqual(ck, full.Checkpoint) {
			t.Errorf("window=%d: stitched checkpoint differs from uninterrupted run", window)
		}
		if ck.Agg.Metrics.Exposition() != full.Metrics.Exposition() {
			t.Errorf("window=%d: stitched metrics exposition differs", window)
		}
	}
}

func TestRunCancel(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOpts(2)
	opts.Context = ctx
	part, err := Run(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if part.Checkpoint.Done {
		t.Fatal("canceled run claims Done")
	}
	resume := testOpts(2)
	resume.Resume = part.Checkpoint
	rest, err := Run(resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rest.Checkpoint, full.Checkpoint) {
		t.Error("resumed-after-cancel checkpoint differs from uninterrupted run")
	}
}

// TestRunResumeOutOfRange: a checkpoint from the 16-cell test venue
// resumed on a 4-cell venue is an error, never a Done run.
func TestRunResumeOutOfRange(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil || full.Checkpoint.NextCell != 16 {
		t.Fatalf("full: next cell %d, err %v; want 16 cells done", full.Checkpoint.NextCell, err)
	}
	small := testOpts(2)
	small.Users = 8
	small.Resume = full.Checkpoint
	res, err := Run(small)
	if err == nil || res.Checkpoint.Done {
		t.Fatalf("resume past the venue's %d cells: err %v, Done %v; want an error",
			res.Layout.Cells(), err, res.Checkpoint.Done)
	}
}

func TestUsersPerTXCap(t *testing.T) {
	opts := testOpts(2)
	opts.UsersPerTX = 1
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Layout.Cells() || res.Unserved != res.Users-res.Served {
		t.Fatalf("cap=1 served %d / unserved %d over %d cells", res.Served, res.Unserved, res.Layout.Cells())
	}
}

func TestContentionSharesBackhaul(t *testing.T) {
	// Halving the backhaul should at most halve-ish the contended mean
	// goodput and never raise it.
	a := testOpts(2)
	b := testOpts(2)
	b.BackhaulGbps = 50
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanGoodputGbps() >= ra.MeanGoodputGbps() {
		t.Errorf("goodput did not drop with backhaul: %.3f vs %.3f",
			rb.MeanGoodputGbps(), ra.MeanGoodputGbps())
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, bad := range []Options{
		{},
		{Users: 10},
		{Users: 10, Density: 0.5, UsersPerTX: -1},
		{Users: 10, Density: 0.5, MaxCells: -1},
		{Users: 10, Density: 0.5, Resume: Checkpoint{NextCell: -1}},
		{Users: 10, Density: math.NaN()},
		{Users: 10, Density: math.Inf(1)},
		{Users: 10, Density: 0.5, Pitch: math.NaN()},
		{Users: 10, Density: 0.5, Pitch: math.Inf(1)},
		{Users: 10, Density: 0.5, BackhaulGbps: math.NaN()},
		{Users: 10, Density: 0.5, BackhaulGbps: math.Inf(1)},
		{Users: 10, Density: 0.5, LinkGoodputGbps: math.NaN()},
		{Users: 10, Density: 0.5, LinkGoodputGbps: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	o := Options{Users: 10, Density: 0.5}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.UsersPerTX != 4 || o.TraceLen != time.Minute || o.Pitch != 2.0 ||
		o.BackhaulGbps != 100 || o.LinkGoodputGbps == 0 || o.Registry == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
}
