package arena

import (
	"runtime"
	"testing"
	"time"

	"cyclops/internal/obs"
)

// scratchOpts is the densest fig16-arena venue (8 served users per cell)
// with the given per-TX cap and session length.
func scratchOpts(usersPerTX int, traceLen time.Duration) Options {
	opts := Options{Seed: 1, Users: 128, Density: 2, UsersPerTX: usersPerTX, TraceLen: traceLen, Registry: obs.NewRegistry()}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return opts
}

// TestCellScratchReuse runs cells of different sizes and lengths through
// one scratch, a full 8-user cell then a 2-user one and the reverse, and
// holds every cell to a fresh-scratch run: every Aggregate field, floats
// as bit patterns, and the exposition. A scratch slice that is not
// truncated before reuse leaks the earlier cell's verdict runs, segments
// or windows into the later one.
func TestCellScratchReuse(t *testing.T) {
	full, pair := scratchOpts(8, 12*time.Second), scratchOpts(2, 7*time.Second)
	l := NewLayout(full.Seed, full.Users, full.Density, full.Pitch)
	type cell struct {
		name string
		opts Options
		c    int
	}
	fullCell, pairCell := cell{"full cell 5", full, 5}, cell{"2-user cell 9", pair, 9}
	fresh := map[string]string{}
	for _, c := range []cell{fullCell, pairCell} {
		a := runCell(l, c.opts, c.c, new(cellScratch))
		if a.BlockedSlots == 0 || a.Served < 2 {
			t.Fatalf("%s: %d served, no blocked slots — test is vacuous", c.name, a.Served)
		}
		fresh[c.name] = renderAggregate(a)
	}
	for _, order := range [][]cell{{fullCell, pairCell}, {pairCell, fullCell}} {
		sc := new(cellScratch)
		for _, c := range order {
			if got := renderAggregate(runCell(l, c.opts, c.c, sc)); got != fresh[c.name] {
				t.Errorf("%s after %s on one scratch:\ngot:  %s\nwant: %s", c.name, order[0].name, got, fresh[c.name])
			}
		}
	}
}

// TestCellAllocsFlatInTraceLength: on a warm scratch, a cell allocates
// the same bytes whatever the session length — trace samples, occlusion
// windows, verdict runs, contention segments and stream windows all live
// in the scratch. Each length keeps its least of three runs, and up to
// 1 KB of slack absorbs map overflow buckets, which vary with each map's
// hash seed. Run without -race by make alloc-check.
func TestCellAllocsFlatInTraceLength(t *testing.T) {
	bytes := func(traceLen time.Duration) uint64 {
		opts := scratchOpts(8, traceLen)
		l := NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
		sc := new(cellScratch)
		runCell(l, opts, 5, sc)
		least := ^uint64(0)
		for k := 0; k < 3; k++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			runCell(l, opts, 5, sc)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	short, long := bytes(10*time.Second), bytes(60*time.Second)
	t.Logf("bytes per warm cell: %d at 10 s, %d at 60 s", short, long)
	if long > short+1024 {
		t.Errorf("a warm cell allocates %d bytes at 60 s, %d at 10 s: something grows with the session", long, short)
	}
}
