package arena

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/trace"
)

// oracleWindows is user i's occlusion windows by the per-sample
// reference: OcclusionWindows over Layout.Occluder's path closures.
func oracleWindows(l Layout, i int, tr trace.Trace) []fault.Window {
	var occs []handover.Occluder
	for _, j := range l.Neighbors(i) {
		pair := l.Occluder(j)
		occs = append(occs, pair[0], pair[1])
	}
	return OcclusionWindows(l.TXPos(l.CellOf(i)), tr, occs)
}

// checkOcclusion holds user i's occlusion pass on sc to the reference,
// window for window, and returns the window count.
func checkOcclusion(t *testing.T, sc *cellScratch, l Layout, i int, tr trace.Trace) int {
	t.Helper()
	got := sc.occlusion(l, l.TXPos(l.CellOf(i)), i, tr.Samples)
	if want := oracleWindows(l, i, tr); !slices.Equal(got, want) {
		t.Fatalf("seed=%d users=%d cellW=%g user %d, %v trace:\ngot:  %v\nwant: %v",
			l.Seed, l.Users, l.CellW, i, tr.Duration(), got, want)
	}
	return len(got)
}

// TestOcclusionMatchesOracle runs the occlusion pass and the reference
// over random venues: seeds, densities 0.5–3 /m², pitches 0.5–3 m and
// trace lengths up to 20 s (not all on the 10 ms grid), every user of the
// venue on one shared scratch.
func TestOcclusionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := new(cellScratch)
	trials, wins := 40, 0
	if testing.Short() {
		trials = 8
	}
	for k := 0; k < trials; k++ {
		density := 0.5 + 2.5*rng.Float64()
		pitch := 0.5 + 2.5*rng.Float64()
		l := NewLayout(rng.Int63(), 8+rng.Intn(57), density, pitch)
		traceLen := time.Duration(rng.Int63n(int64(20 * time.Second)))
		for i := 0; i < l.Users; i++ {
			wins += checkOcclusion(t, sc, l, i, l.Trace(i, traceLen))
		}
	}
	if wins == 0 {
		t.Fatal("no occlusion windows in any venue — the comparison is vacuous")
	}
}

// FuzzOcclusionMatchesOracle is TestOcclusionMatchesOracle for one user
// of one venue: density 0.5–3 /m², pitch 0.5–3 m, a trace of up to 20 s.
// The committed seeds cover the densest fig16-arena cell, a narrow pitch
// with more than one ring of neighbouring cells, a sparse venue, a
// one-cell venue, traces shorter than one chunk and one sample, and a
// length off the 10 ms grid.
func FuzzOcclusionMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, users uint8, densityPermille, pitchCm uint16, traceMs uint16, user uint8) {
		n := 1 + int(users)%128
		density := 0.5 + float64(densityPermille%2501)/1000
		pitch := 0.5 + float64(pitchCm%251)/100
		l := NewLayout(seed, n, density, pitch)
		i := int(user) % n
		checkOcclusion(t, new(cellScratch), l, i, l.Trace(i, time.Duration(traceMs%20001)*time.Millisecond))
	})
}

// onGrid is a trace of n samples on the SampleInterval grid, the head at
// head(k) for sample k.
func onGrid(n int, head func(k int) geom.Vec3) trace.Trace {
	tr := trace.Trace{Samples: make([]trace.Sample, n)}
	for k := range tr.Samples {
		tr.Samples[k] = trace.Sample{At: time.Duration(k) * trace.SampleInterval, Pose: geom.Pose{Rot: geom.QuatIdentity(), Trans: head(k)}}
	}
	return tr
}

// TestOcclusionGrazing puts a sphere's closest approach to the beam within
// 1e-9 m of OccluderRadius, on either side, and holds the pass to the
// reference. The beam runs from a TX at (0, 0, 3) to a head near (0, 0, 1).
// Each scenario puts the approach where one term of the chunk bound
// decides it: a still body and head (the slack), a swaying body that
// reaches toward the beam mid-chunk (amp), and a still body that a moving
// head swings the beam onto at the chunk's last sample (r).
func TestOcclusionGrazing(t *testing.T) {
	tx := geom.V(0, 0, 3)
	still := func(int) geom.Vec3 { return geom.V(0, 0, 1) }
	// swing moves the head from x = -0.6 to 0 over the first chunk.
	swing := func(k int) geom.Vec3 {
		last := (occlusionChunk - 1) * headStride
		return geom.V(-0.6*float64(max(last-k, 0))/float64(last), 0, 1)
	}
	const reach = 7 // the swaying body's sway points at the beam at this occlusion sample
	reachAt := time.Duration(reach) * OcclusionStep
	scenarios := []struct {
		name string
		head func(int) geom.Vec3
		body func(delta float64) body
	}{
		{"still", still, func(delta float64) body {
			return body{homeX: OccluderRadius + delta, period: 4}
		}},
		{"sway", still, func(delta float64) body {
			const amp, period = 0.25, 4.0
			return body{homeX: OccluderRadius + amp + delta, amp: amp, period: period,
				phase: -math.Pi/2 - 2*math.Pi*reachAt.Seconds()/period}
		}},
		{"swing", swing, func(delta float64) body {
			return body{homeX: OccluderRadius + delta, period: 4}
		}},
	}
	for _, sc := range scenarios {
		blocked := 0
		for _, delta := range []float64{-9e-10, -5e-10, -1e-12, 0, 1e-12, 5e-10, 9e-10} {
			b := sc.body(delta)
			tr := onGrid(3*occlusionChunk*headStride+1, sc.head)
			got := occlusionWindows(nil, tx, tr.Samples, []body{b})
			occs := b.occluders()
			want := OcclusionWindows(tx, tr, occs[:])
			if !slices.Equal(got, want) {
				t.Errorf("%s, closest approach %g m from the radius:\ngot:  %v\nwant: %v", sc.name, delta, got, want)
			}
			if len(want) > 0 {
				blocked++
			}
		}
		if blocked == 0 {
			t.Errorf("%s: no grazing case blocks the beam — the scenario is vacuous", sc.name)
		}
	}
}

// goldenCellPass returns the occlusion pass over the users of cell 5 of
// the densest golden venue (all of them served) on one scratch. The
// traces are generated once, up front.
func goldenCellPass() func() {
	opts := goldenVenues[0].options()
	l := NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
	const c = 5
	lo, hi := l.CellUsers(c)
	tx := l.TXPos(c)
	var trs []trace.Trace
	for i := lo; i < hi; i++ {
		trs = append(trs, l.Trace(i, opts.TraceLen))
	}
	sc := new(cellScratch)
	return func() {
		for k, tr := range trs {
			sc.occlusion(l, tx, lo+k, tr.Samples)
		}
	}
}

// TestOcclusionZeroAllocs pins the //cyclops:hotpath contract on the
// occlusion pass: on a warm scratch, a cell's users allocate nothing.
// Run without -race by make alloc-check.
func TestOcclusionZeroAllocs(t *testing.T) {
	pass := goldenCellPass()
	pass()
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("occlusion pass allocates %.1f times per cell on a warm scratch", a)
	}
}

// BenchmarkArenaOcclusion times the occlusion pass of every served user
// of one cell of the densest fig16-arena venue (8 users, 60 s traces) on
// a warm scratch.
func BenchmarkArenaOcclusion(b *testing.B) {
	pass := goldenCellPass()
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pass()
	}
}
