package cyclops

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// fig16ArenaTestGrid is a trimmed sweep — one packed 4×4 m venue, two
// serving caps — that exercises the full pipeline (layout, occlusion
// geometry, chaos slot model, backhaul contention, capacity lines)
// affordably under the race detector.
var fig16ArenaTestGrid = fig16ArenaGrid{
	areaM2:     16,
	usersPerTX: []int{2, 8},
	densities:  []float64{2.0},
	traceLen:   15 * time.Second,
}

// TestFig16ArenaWorkerDeterminism pins the arena sweep to the repo's
// contract: bit-identical results — and byte-identical rendered reports —
// at any worker count.
func TestFig16ArenaWorkerDeterminism(t *testing.T) {
	serial, err := fig16ArenaRun(3, 1, fig16ArenaTestGrid)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(serial.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(serial.Cells))
	}
	var handovers, served int
	for _, c := range serial.Cells {
		handovers += c.Handovers
		served += c.Served
	}
	if handovers == 0 {
		t.Fatal("packed venue fired no handovers — test is vacuous")
	}
	if served == 0 {
		t.Fatal("no users served")
	}
	for _, workers := range []int{2, 4} {
		got, err := fig16ArenaRun(3, workers, fig16ArenaTestGrid)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Fig16ArenaResult differs from serial run", workers)
		}
		if got.Render() != serial.Render() {
			t.Errorf("workers=%d: rendered report differs from serial run", workers)
		}
	}
}

// TestFig16ArenaCapFewerServed: halving the serving cap in a packed venue
// must strand users without changing who the crowd occludes.
func TestFig16ArenaCapFewerServed(t *testing.T) {
	res, err := fig16ArenaRun(3, 2, fig16ArenaTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	small, big := res.Cells[0], res.Cells[1]
	if small.UsersPerTX >= big.UsersPerTX {
		t.Fatalf("grid order changed: %d vs %d", small.UsersPerTX, big.UsersPerTX)
	}
	if small.Served >= big.Served || small.Unserved <= big.Unserved {
		t.Errorf("cap %d served %d/unserved %d vs cap %d served %d/unserved %d",
			small.UsersPerTX, small.Served, small.Unserved,
			big.UsersPerTX, big.Served, big.Unserved)
	}
	if small.Users != big.Users {
		t.Errorf("crowd size changed with the cap: %d vs %d", small.Users, big.Users)
	}
}

// TestFig16ArenaRender pins the report shape the arena-smoke target
// greps: a capacity line per serving cap.
func TestFig16ArenaRender(t *testing.T) {
	res, err := fig16ArenaRun(3, 2, fig16ArenaTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if n := strings.Count(out, "capacity:"); n != 2 {
		t.Errorf("rendered %d capacity lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "Fig 16-arena") {
		t.Errorf("missing header:\n%s", out)
	}
}

// TestFig16ArenaAt covers the -users/-density single-venue entry point.
func TestFig16ArenaAt(t *testing.T) {
	res, err := Fig16ArenaAt(3, 32, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Users != 32 || c.UsersPerTX != 4 {
		t.Errorf("single venue cell: %+v", c)
	}
	if c.TXs == 0 || c.Served == 0 {
		t.Errorf("degenerate venue: %+v", c)
	}
}
