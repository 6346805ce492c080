package netem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// carryLoop is the loop carryN replaces: n of Tick's carry steps.
func carryLoop(f, c float64, n int) (float64, int64) {
	var packets int64
	for ; n > 0; n-- {
		f, packets = carryStep(f, c, packets)
	}
	return f, packets
}

func checkCarry(t *testing.T, f, c float64, n int) {
	t.Helper()
	wf, wp := carryLoop(f, c, n)
	gf, gp := carryN(f, c, n)
	if math.Float64bits(gf) != math.Float64bits(wf) || gp != wp {
		t.Fatalf("carryN(%x, %x, %d) = (%x, %d), loop gives (%x, %d)",
			math.Float64bits(f), math.Float64bits(c), n, math.Float64bits(gf), gp, math.Float64bits(wf), wp)
	}
}

// FuzzCarryMatchesLoop: carryN returns the loop's fraction bit for bit
// and its packet count. The committed seeds cover c below 1, c within 1
// of the top of its binade (the fallback), f off c's grid (as after a
// ramp tick), n = 0 and 1, integral c with a grid of 1 and of 2⁻⁵², and
// the per-tick packet increments of 23.5, 6.25 and 0.78125 Gbps over 1 ms.
func FuzzCarryMatchesLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, frac, c float64, n uint16) {
		checkCarry(t, frac, c, int(n))
	})
}

// TestCarryMatchesLoop draws the cases the fuzzer finds only by luck: c
// anywhere in the binades the kernel takes, biased to the top of the
// binade (either side of the c + 1 ≤ 2ᵉ⁺¹ edge) and to short grids, with
// f on c's grid, off it, or zero.
func TestCarryMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for i := 0; i < cases; i++ {
		e := rng.Intn(54) - 1 // c from [½, 1) up to [2⁵², 2⁵³)
		c := math.Ldexp(1+rng.Float64(), e)
		switch rng.Intn(4) {
		case 0: // near the binade top: c + 1 lands either side of 2ᵉ⁺¹
			c = math.Ldexp(2, e) - 1 + (rng.Float64()-0.5)*math.Ldexp(1, -rng.Intn(8))
		case 1: // a short significand: few grid bits below the point
			c = math.Round(c*64) / 64
		}
		var frac float64
		switch rng.Intn(3) {
		case 0:
			frac = rng.Float64()
		case 1: // on c's grid
			frac = math.Mod(math.Ldexp(float64(rng.Int63n(1<<52)), e-52), 1)
		}
		checkCarry(t, frac, c, rng.Intn(5000))
	}
}

// streamState renders every field of s that Tick writes, floats as bit
// patterns.
func streamState(s *Stream) string {
	return fmt.Sprintf("cur=%d bits=%x started=%v upAt=%d wasUp=%v packets=%d frac=%x windows=%v frozen=%v carried=%x offered=%x",
		s.cur, math.Float64bits(s.bits), s.started, s.upAt, s.wasUp, s.packets,
		math.Float64bits(s.fracPkts), windowBits(s.windows), s.curFrozen,
		math.Float64bits(s.carriedBits), math.Float64bits(s.offeredBits))
}

func windowBits(ws []Window) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("%d:%x", w.Start, math.Float64bits(w.Gbps))
	}
	return out
}

// tickRates are the contended rates of the densest arena cell (the 25G
// link ceiling, a 6.25 Gbps cell share alone and split eight ways).
var tickRates = []float64{23.5, 6.25, 0.78125}

// FuzzTickRunMatchesTick: a stream fed runs through TickRun ends every
// run in exactly the state of a twin fed the same ticks one Tick at a
// time, and both Finish with the same windows. Each case pre-rolls the
// twins with preDown down ticks and preUp up ticks (so the run may start
// inside the TCP ramp), takes one run of n ticks, then tail random runs
// drawn from seed. The committed seeds cover n = 0 and 1, a run starting
// mid-ramp, a run crossing several windows, down runs, a tick that does
// not divide the window, and the rates 23.5 / 6.25 / 0.78125.
func FuzzTickRunMatchesTick(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, tickUS uint16, preDown, preUp uint8, n uint16, up bool, rate float64, tail uint8) {
		tick := time.Duration(tickUS) * time.Microsecond
		rng := rand.New(rand.NewSource(seed))
		run, one := NewStream(), NewStream()
		at := time.Duration(rng.Int63n(int64(time.Second)))
		feed := func(k int, up bool, rate float64) {
			run.TickRun(at, tick, k, up, rate)
			for j := 0; j < k; j++ {
				one.Tick(at, tick, up, rate)
				at += tick
			}
			if got, want := streamState(run), streamState(one); got != want {
				t.Fatalf("after a run of %d (up=%v rate=%v):\nTickRun: %s\nTick:    %s", k, up, rate, got, want)
			}
		}
		for j := 0; j < int(preDown); j++ {
			feed(1, false, rate)
		}
		for j := 0; j < int(preUp); j++ {
			feed(1, true, rate)
		}
		feed(int(n), up, rate)
		for j := 0; j < int(tail); j++ {
			r := rate
			if k := rng.Intn(len(tickRates) + 1); k < len(tickRates) {
				r = tickRates[k]
			}
			feed(rng.Intn(300), rng.Intn(3) > 0, r)
		}
		if got, want := windowBits(run.Finish()), windowBits(one.Finish()); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Finish windows differ:\nTickRun: %v\nTick:    %v", got, want)
		}
	})
}

// TestTickRunMatchesTick runs 300 random streams of alternating up and
// down runs at the arena's rates through both paths, on 1 ms ticks and on
// ticks that do not divide the window.
func TestTickRunMatchesTick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		tick := time.Millisecond
		if i%3 == 0 {
			tick = time.Duration(1+rng.Intn(7000)) * time.Microsecond
		}
		run, one := NewStream(), NewStream()
		var at time.Duration
		for r := 0; r < 40; r++ {
			n, up := rng.Intn(400), rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				n = rng.Intn(3)
			}
			rate := tickRates[rng.Intn(len(tickRates))]
			run.TickRun(at, tick, n, up, rate)
			for j := 0; j < n; j++ {
				one.Tick(at, tick, up, rate)
				at += tick
			}
		}
		run.Finish()
		one.Finish()
		if got, want := streamState(run), streamState(one); got != want {
			t.Fatalf("stream %d:\nTickRun: %s\nTick:    %s", i, got, want)
		}
	}
}

// TestTickRunZeroAllocs pins the //cyclops:hotpath contract on TickRun
// and carryN: with window capacity in hand, alternating up and down runs
// over several windows allocate nothing.
func TestTickRunZeroAllocs(t *testing.T) {
	s := NewStream()
	s.windows = make([]Window, 0, 4096)
	var at time.Duration
	up := true
	allocs := testing.AllocsPerRun(100, func() {
		s.TickRun(at, time.Millisecond, 1000, up, 23.5)
		at += time.Second
		up = !up
	})
	if allocs != 0 {
		t.Fatalf("TickRun allocates %v per call, want 0", allocs)
	}
	if s.packets == 0 || len(s.windows) == 0 {
		t.Fatal("no packets or windows — test is vacuous")
	}
}
