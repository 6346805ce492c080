package arena

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
)

// goldenPath is the arena pin: every Aggregate field and the merged
// metrics exposition of four venue configurations.
var goldenPath = filepath.Join("testdata", "arena.golden")

// goldenVenue is one pinned arena configuration.
type goldenVenue struct {
	seed       int64
	users      int
	density    float64
	usersPerTX int
	traceLen   time.Duration
}

// goldenVenues spans the densest fig16-arena cell (the perfbench
// workload), its held-out seed on shorter traces, a sparse venue with
// unserved users, and a small venue with a cap below the cell size.
var goldenVenues = []goldenVenue{
	{1, 128, 2, 8, 60 * time.Second},
	{20221, 128, 2, 8, 20 * time.Second},
	{3, 64, 0.5, 2, 20 * time.Second},
	{5, 32, 2, 4, 60 * time.Second},
}

func (v goldenVenue) options() Options {
	opts := Options{
		Seed:       v.seed,
		Users:      v.users,
		Density:    v.density,
		UsersPerTX: v.usersPerTX,
		TraceLen:   v.traceLen,
		Workers:    2,
		Registry:   obs.NewRegistry(),
	}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return opts
}

func (v goldenVenue) String() string {
	return fmt.Sprintf("seed=%d users=%d density=%g perTX=%d trace=%v", v.seed, v.users, v.density, v.usersPerTX, v.traceLen)
}

// fmtFloat renders a float as its bit pattern (the pin) next to its
// shortest decimal form (for the reader).
func fmtFloat(f float64) string {
	return fmt.Sprintf("%016x(%s)", math.Float64bits(f), fmt.Sprint(f))
}

// renderAggregate renders every Aggregate field, floats by bit pattern,
// followed by the merged exposition.
func renderAggregate(a Aggregate) string {
	return fmt.Sprintf("cells=%d users=%d served=%d unserved=%d slots=%d off=%d blocked=%d outages=%d handovers=%d avail99=%d avail999=%d minavail=%s goodputsum=%s mingoodput=%s\n%s",
		a.Cells, a.Users, a.Served, a.Unserved, a.Slots, a.OffSlots, a.BlockedSlots,
		a.Outages, a.Handovers, a.Avail99, a.Avail999,
		fmtFloat(a.MinAvailability), fmtFloat(a.GoodputSumGbps), fmtFloat(a.MinGoodputGbps),
		a.Metrics.Exposition())
}

func renderArenaGolden(t *testing.T) string {
	var b strings.Builder
	for _, v := range goldenVenues {
		res, err := Run(v.options())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		fmt.Fprintf(&b, "== venue %v\n", v)
		b.WriteString(renderAggregate(res.Aggregate))
	}
	return b.String()
}

// TestArenaGolden pins arena.Run byte for byte. The golden file was
// rendered by the per-slot contention pass (runCellPerSlot's engine);
// never regenerate it to make a change pass — a diff here is a behaviour
// change.
func TestArenaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four full venues")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := renderArenaGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("arena output differs from %s at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("arena output differs from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
}

// TestRunCellMatchesPerSlot holds runCell to the per-slot oracle cell by
// cell, every Aggregate field and the cell's exposition, over the golden
// venues (the two short-trace ones under -short). One scratch serves
// every cell of every venue, as one Fold worker's would.
func TestRunCellMatchesPerSlot(t *testing.T) {
	sc := new(cellScratch)
	for _, v := range goldenVenues {
		if testing.Short() && v.traceLen > 20*time.Second {
			continue
		}
		opts := v.options()
		l := NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
		for c := 0; c < l.Cells(); c++ {
			got, want := runCell(l, opts, c, sc), runCellPerSlot(l, opts, c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v cell %d:\ngot:  %s\nwant: %s", v, c, renderAggregate(got), renderAggregate(want))
			}
		}
	}
}
