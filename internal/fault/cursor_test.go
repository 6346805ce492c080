package fault

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// fuzzSchedule builds a Start-sorted schedule from seed: n random windows
// of every kind, plus two overlapping occlusions, three stacked haze fades
// and two overlapping saturations at random offsets, so every reduction
// (deepest occlusion, index-order haze sum, tightest limit) is exercised.
func fuzzSchedule(seed int64, n int) (Schedule, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	span := time.Duration(1+rng.Intn(2000)) * time.Millisecond
	dur := func(max time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(max) + 1)) }
	window := func(k Kind, start time.Duration) Window {
		w := Window{Kind: k, Start: start, End: start + dur(span/2)}
		switch k {
		case Occlusion, HazeFade:
			w.DepthDB = 50 * rng.Float64()
			w.Ramp = dur(w.End - w.Start)
			if rng.Intn(2) == 0 {
				w.RampDown = dur(w.End - w.Start)
			}
		case GalvoSaturation:
			w.Limit = 2 * rng.Float64()
		}
		return w
	}
	s := Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		s.Windows = append(s.Windows, window(Kind(rng.Intn(int(numKinds))), dur(span)))
	}
	for _, group := range []struct {
		kind Kind
		n    int
	}{{Occlusion, 2}, {HazeFade, 3}, {GalvoSaturation, 2}} {
		at := dur(span)
		for i := 0; i < group.n; i++ {
			s.Windows = append(s.Windows, window(group.kind, at+dur(span/20)))
		}
	}
	sort.SliceStable(s.Windows, func(i, j int) bool {
		if s.Windows[i].Start != s.Windows[j].Start {
			return s.Windows[i].Start < s.Windows[j].Start
		}
		return s.Windows[i].Kind < s.Windows[j].Kind
	})
	return s, span + span/2
}

// stateRef is the window reduction as a full scan in index order with no
// early exit — the oracle both At and the cursor must reproduce.
func stateRef(s *Schedule, t time.Duration) State {
	var st State
	for _, w := range s.Windows {
		if t < w.Start || t >= w.End {
			continue
		}
		switch w.Kind {
		case Occlusion:
			st.AttenDB = math.Max(st.AttenDB, w.attenAt(t))
		case HazeFade:
			st.HazeDB += w.attenAt(t)
		case GalvoSaturation:
			if st.GalvoSatLimit == 0 || w.Limit < st.GalvoSatLimit {
				st.GalvoSatLimit = w.Limit
			}
		case TrackerBlackout:
			st.TrackerBlackout = true
		case TrackerFreeze:
			st.TrackerFreeze = true
		case GalvoStuck:
			st.GalvoStuck = true
		case SolverDiverge:
			st.SolverDiverge = true
		}
	}
	st.AttenDB += st.HazeDB
	return st
}

func sameState(a, b State) bool {
	return math.Float64bits(a.AttenDB) == math.Float64bits(b.AttenDB) &&
		math.Float64bits(a.HazeDB) == math.Float64bits(b.HazeDB) &&
		math.Float64bits(a.GalvoSatLimit) == math.Float64bits(b.GalvoSatLimit) &&
		a.TrackerBlackout == b.TrackerBlackout && a.TrackerFreeze == b.TrackerFreeze &&
		a.GalvoStuck == b.GalvoStuck && a.SolverDiverge == b.SolverDiverge
}

// FuzzCursorMatchesAt: a cursor walked over non-decreasing probe times —
// every window edge and its neighbouring nanoseconds, plus random instants
// with repeats — returns At's state bit for bit at every probe, and a step
// backwards still reads the right state.
func FuzzCursorMatchesAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint8, extra uint16) {
		s, end := fuzzSchedule(seed, int(n%48))
		rng := rand.New(rand.NewSource(seed ^ int64(extra)))
		var probes []time.Duration
		for _, w := range s.Windows {
			for _, e := range []time.Duration{w.Start, w.End} {
				probes = append(probes, e-1, e, e, e+1)
			}
		}
		for i := 0; i < int(extra%512); i++ {
			probes = append(probes, time.Duration(rng.Int63n(int64(end)+1)))
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		c := s.Cursor()
		for _, at := range probes {
			got, want := c.At(at), s.At(at)
			if !sameState(got, want) {
				t.Fatalf("Cursor.At(%v) = %+v, At = %+v\n%s", at, got, want, s.String())
			}
			if ref := stateRef(&s, at); !sameState(want, ref) {
				t.Fatalf("At(%v) = %+v, full-scan reduction %+v\n%s", at, want, ref, s.String())
			}
		}
		back := time.Duration(rng.Int63n(int64(end) + 1))
		if got, want := c.At(back), s.At(back); !sameState(got, want) {
			t.Fatalf("Cursor.At(%v) after stepping back = %+v, At = %+v", back, got, want)
		}
	})
}

// A nil schedule's cursor reads the zero state, like At on nil.
func TestCursorNilSchedule(t *testing.T) {
	var s *Schedule
	c := s.Cursor()
	if st := c.At(time.Second); st != (State{}) {
		t.Fatalf("nil schedule cursor state %+v", st)
	}
}

// breakpoints lists every instant at which a window can change the fault
// state: window starts and ends and the ramp edges of attenuation windows.
func breakpoints(s *Schedule) []time.Duration {
	var bs []time.Duration
	for _, w := range s.Windows {
		up, down := w.ramps()
		bs = append(bs, w.Start, w.End, w.Start+up, w.End-down, w.End-down+1)
	}
	return bs
}

// until is the state horizon UntilVerdict refines, kept as the oracle the
// fuzz targets compare against: the first instant after t, the time of the
// last At call, at which the fault state may differ from At(t) — the next
// window start, the end of an active window, or an attenuation ramp edge.
// At reads the same state, field for field, at every instant of
// [t, until(c)). Inside a ramp the attenuation moves every nanosecond, so
// it is t+1; with no window ahead it is math.MaxInt64.
func until(c *Cursor) time.Duration {
	u, ramp := c.horizon()
	if ramp != noRamp {
		return c.last + 1
	}
	return u
}

// FuzzCursorUntilIsConstant: after a cursor reads At(t), until lies
// after t and the state is constant, field for field, on [t, until) —
// sampled at 1 ms spacing plus 1 ns either side of every breakpoint
// inside the interval, and at its last instant.
func FuzzCursorUntilIsConstant(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint8, extra uint16) {
		s, end := fuzzSchedule(seed, int(n%48))
		rng := rand.New(rand.NewSource(seed ^ int64(extra)))
		bs := breakpoints(&s)
		probes := []time.Duration{0}
		for _, b := range bs {
			probes = append(probes, b-1, b, b+1)
		}
		for i := 0; i < int(extra%256); i++ {
			probes = append(probes, time.Duration(rng.Int63n(int64(end)+1)))
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		c := s.Cursor()
		for _, at := range probes {
			if at < 0 {
				continue
			}
			st := c.At(at)
			u := until(&c)
			if u <= at {
				t.Fatalf("until = %v after At(%v)\n%s", u, at, s.String())
			}
			stop := min(u, end+time.Millisecond)
			samples := []time.Duration{u - 1}
			for x := at; x < stop; x += time.Millisecond {
				samples = append(samples, x)
			}
			for _, b := range bs {
				samples = append(samples, b-1, b+1)
			}
			for _, x := range samples {
				if x < at || x >= stop {
					continue
				}
				if got := s.At(x); !sameState(got, st) {
					t.Fatalf("At(%v) = %+v differs from At(%v) = %+v before until = %v\n%s", x, got, at, st, u, s.String())
				}
			}
		}
	})
}

// verdictThresholds draws the two UntilVerdict thresholds for a fuzz case:
// a random depth; a window's exact plateau depth, which a ramp touches only
// at its top; a window's attenuation at the last instant of a ramp, so that
// a verdict flips on a phase's final nanosecond; or +Inf, a verdict the
// caller does not read.
func verdictThresholds(rng *rand.Rand, s *Schedule) (blockDB, physDB float64) {
	draw := func() float64 {
		k := rng.Intn(5)
		if k == 0 || len(s.Windows) == 0 {
			return math.Inf(1)
		}
		w := s.Windows[rng.Intn(len(s.Windows))]
		up, down := w.ramps()
		switch k {
		case 1:
			return w.DepthDB
		case 2:
			return w.attenAt(w.Start + up - 1)
		case 3:
			return w.attenAt(w.End - 1 - time.Duration(rng.Int63n(int64(max(down, 0))+1)))
		}
		return 60 * rng.Float64()
	}
	return draw(), draw()
}

// sameVerdicts reports whether a and b agree on every field UntilVerdict
// holds still: the non-attenuation fields and both threshold verdicts.
func sameVerdicts(a, b State, blockDB, physDB float64) bool {
	return a.TrackerBlackout == b.TrackerBlackout && a.TrackerFreeze == b.TrackerFreeze &&
		a.GalvoStuck == b.GalvoStuck && a.SolverDiverge == b.SolverDiverge &&
		math.Float64bits(a.GalvoSatLimit) == math.Float64bits(b.GalvoSatLimit) &&
		(a.AttenDB >= blockDB) == (b.AttenDB >= blockDB) &&
		(a.AttenDB-a.HazeDB >= physDB) == (b.AttenDB-b.HazeDB >= physDB)
}

// FuzzCursorUntilVerdictIsConstant: after a cursor reads At(t),
// UntilVerdict lies after t, no earlier than until, and At keeps every
// non-attenuation field and both threshold verdicts on [t, UntilVerdict())
// — sampled at 1 ms spacing plus 1 ns either side of every breakpoint
// inside the interval, and at its last instant. The probes are the
// breakpoints and random instants, as in FuzzCursorUntilIsConstant, plus
// the chain of horizons a slot engine walks (each one read at the last,
// at least 1 ms apart).
func FuzzCursorUntilVerdictIsConstant(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint8, extra uint16) {
		s, end := fuzzSchedule(seed, int(n%48))
		rng := rand.New(rand.NewSource(seed ^ int64(extra)))
		blockDB, physDB := verdictThresholds(rng, &s)
		bs := breakpoints(&s)
		check := func(c *Cursor, at time.Duration) time.Duration {
			st := c.At(at)
			u := c.UntilVerdict(blockDB, physDB)
			if u <= at || u < until(c) {
				t.Fatalf("UntilVerdict(%v, %v) = %v after At(%v), until = %v\n%s", blockDB, physDB, u, at, until(c), s.String())
			}
			stop := min(u, end+time.Millisecond)
			samples := []time.Duration{u - 1}
			for x := at; x < stop; x += time.Millisecond {
				samples = append(samples, x)
			}
			for _, b := range bs {
				samples = append(samples, b-1, b+1)
			}
			for _, x := range samples {
				if x < at || x >= stop {
					continue
				}
				if got := s.At(x); !sameVerdicts(got, st, blockDB, physDB) {
					t.Fatalf("thresholds %v/%v: At(%v) = %+v differs from At(%v) = %+v before UntilVerdict() = %v\n%s",
						blockDB, physDB, x, got, at, st, u, s.String())
				}
			}
			return u
		}
		probes := []time.Duration{0}
		for _, b := range bs {
			probes = append(probes, b-1, b, b+1)
		}
		for i := 0; i < int(extra%256); i++ {
			probes = append(probes, time.Duration(rng.Int63n(int64(end)+1)))
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		c := s.Cursor()
		for _, at := range probes {
			if at >= 0 {
				check(&c, at)
			}
		}
		// Inside a mixed ramp the horizon is t+1; the walk steps on by
		// one 1 ms slot there, as the slot engine does.
		walk := s.Cursor()
		for at := time.Duration(0); at <= end; {
			at = max(check(&walk, at), at+time.Millisecond)
		}
	})
}

// TestCursorZeroAllocs pins the //cyclops:hotpath contract on At and
// UntilVerdict.
func TestCursorZeroAllocs(t *testing.T) {
	s, end := fuzzSchedule(7, 40)
	c := s.Cursor()
	var at time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		c.At(at)
		at = min(c.UntilVerdict(10, 8), at+time.Millisecond)
		if at > end {
			at = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("Cursor.At+UntilVerdict allocate %v per call, want 0", allocs)
	}
}
