package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// addLoop is the loop AddN replaces: the oracle every test compares
// against.
func addLoop(g, c float64, n int) float64 {
	for ; n > 0; n-- {
		g += c
	}
	return g
}

func checkAddN(t *testing.T, g, c float64, n int) {
	t.Helper()
	want, got := addLoop(g, c, n), AddN(g, c, n)
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("AddN(%x, %x, %d) = %x, loop gives %x",
			math.Float64bits(g), math.Float64bits(c), n, math.Float64bits(got), math.Float64bits(want))
	}
}

// FuzzAddNMatchesLoop: AddN returns the loop's result bit for bit. The
// committed seeds cover g = 0, ties on even and odd significands, a
// crossing at G = 2⁵³−1, c below half an ulp (and exactly half of one),
// subnormal g and c, c ≥ g, and NaN, ±Inf and negative inputs.
func FuzzAddNMatchesLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, g, c float64, n uint16) {
		checkAddN(t, g, c, int(n))
	})
}

// TestAddNMatchesLoop draws inputs the fuzzer finds only by luck: c a
// given number of binades below g, with c/ulp(g) forced onto an exact tie
// or one bit either side of it, and g a few ulps below the top of its
// binade, so runs start at, end at and cross binade edges.
func TestAddNMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		ge := uint64(1 + rng.Intn(0x7fe))
		gf := rng.Uint64() & fracMask
		if rng.Intn(3) == 0 {
			gf = fracMask - uint64(rng.Intn(64))
		}
		gap := uint64(rng.Intn(60))
		ce := uint64(1)
		if ge > gap {
			ce = ge - gap
		}
		cf := rng.Uint64() & fracMask
		if s := ge - ce; s >= 1 && s <= fracBits+1 && rng.Intn(2) == 0 {
			// Put c/ulp(g) on a tie, or one unit of c's last bit off it.
			cf = cf&^(1<<s-1) | 1<<(s-1)
			cf = (cf + uint64(rng.Intn(3)) - 1) & fracMask
		}
		g := math.Float64frombits(ge<<fracBits | gf)
		c := math.Float64frombits(ce<<fracBits | cf)
		checkAddN(t, g, c, rng.Intn(70000))
	}
}

// TestAddNZeroAllocs pins the //cyclops:hotpath contract.
func TestAddNZeroAllocs(t *testing.T) {
	g := 0.0
	allocs := testing.AllocsPerRun(1000, func() { g = AddN(g, 23.5, 60000) })
	if allocs != 0 {
		t.Fatalf("AddN allocates %v per call, want 0", allocs)
	}
}

// BenchmarkAddN is one trace's worth of 1 ms goodput adds (60 s), from 0.
func BenchmarkAddN(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		g = AddN(0, 23.5, 60000)
	}
	_ = g
}
