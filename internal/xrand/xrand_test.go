package xrand

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSequenceMatchesMathRand pins the whole point of this package: for
// any seed, the replica's draw stream is bit-identical to
// rand.New(rand.NewSource(seed)). The mixed draw schedule below
// interleaves every method the trace synthesizer uses (Float64,
// NormFloat64, Intn) plus the raw integer draws, so a divergence in any
// path — including rejection resampling — desynchronizes the streams
// and fails loudly.
func TestSequenceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, 700, 701, 1199, math.MinInt64, math.MaxInt64, 89482311, -89482311}
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 20000; i++ {
			switch i % 7 {
			case 0:
				r, g := ref.Float64(), got.Float64()
				if math.Float64bits(r) != math.Float64bits(g) {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, r)
				}
			case 1:
				r, g := ref.NormFloat64(), got.NormFloat64()
				if math.Float64bits(r) != math.Float64bits(g) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, r)
				}
			case 2:
				if r, g := ref.Intn(30), got.Intn(30); r != g {
					t.Fatalf("seed %d draw %d: Intn(30) %d != %d", seed, i, g, r)
				}
			case 3:
				if r, g := ref.Int63(), got.Int63(); r != g {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, r)
				}
			case 4:
				if r, g := ref.Uint32(), got.Uint32(); r != g {
					t.Fatalf("seed %d draw %d: Uint32 %d != %d", seed, i, g, r)
				}
			case 5:
				// Non-power-of-two and power-of-two Int31n paths.
				if r, g := ref.Int31n(7), got.Int31n(7); r != g {
					t.Fatalf("seed %d draw %d: Int31n(7) %d != %d", seed, i, g, r)
				}
				if r, g := ref.Int31n(8), got.Int31n(8); r != g {
					t.Fatalf("seed %d draw %d: Int31n(8) %d != %d", seed, i, g, r)
				}
			case 6:
				if r, g := ref.Int63n(1<<40+3), got.Int63n(1<<40+3); r != g {
					t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, g, r)
				}
			}
		}
	}
}

// TestSeedReducesLikeMathRand covers the Seed edge cases: multiples of
// 2³¹−1 reduce to zero (which remaps to 89482311), and negatives wrap.
func TestSeedReducesLikeMathRand(t *testing.T) {
	for _, seed := range []int64{int32max, 2 * int32max, -int32max, int32max + 5, -(int32max + 5)} {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 100; i++ {
			if r, g := ref.Int63(), got.Int63(); r != g {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, r)
			}
		}
	}
}

// stdVec reads the seeded 607-word register of a math/rand source (an
// unexported field of rngSource, readable through reflect).
func stdVec(src rand.Source) reflect.Value {
	return reflect.ValueOf(src).Elem().FieldByName("vec")
}

// TestSeedMatchesMathRand pins the jump-ahead Seed to rngSource.Seed: the
// register words themselves, and the first 2000 draws, for the reduction
// edge cases (0 and multiples of 2³¹−1 remap to 89482311, negatives wrap,
// the int64 extremes) and for 10 000 consecutive seeds.
func TestSeedMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, 2 * int32max, -int32max, -3 * int32max, 1 << 32 * int32max,
		math.MinInt64, math.MaxInt64}
	for s := int64(1); s <= 10000; s++ {
		seeds = append(seeds, s)
	}
	var got Rand
	for _, seed := range seeds {
		src := rand.NewSource(seed)
		got.Seed(seed)
		vec := stdVec(src)
		for i := range got.vec {
			if w := vec.Index(i).Int(); got.vec[i] != w {
				t.Fatalf("seed %d: vec[%d] = %d, math/rand has %d", seed, i, got.vec[i], w)
			}
		}
		for i := 0; i < 2000; i++ {
			if w, g := src.Int63(), got.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, w)
			}
		}
	}
}

// TestExpFloat64MatchesMathRand pins ExpFloat64 draw for draw, interleaved
// with Float64 so a desynchronized tail path shows in either stream; 200 000
// draws per seed reach the base strip and the wedge rejections many times.
func TestExpFloat64MatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 7, 89482311, math.MinInt64} {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 200000; i++ {
			r, g := ref.ExpFloat64(), got.ExpFloat64()
			if math.Float64bits(r) != math.Float64bits(g) {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v != %v", seed, i, g, r)
			}
			if i%5 == 0 {
				if r, g := ref.Float64(), got.Float64(); math.Float64bits(r) != math.Float64bits(g) {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, r)
				}
			}
		}
	}
}

// TestSeedZeroAllocs pins the //cyclops:hotpath contract on Seed.
func TestSeedZeroAllocs(t *testing.T) {
	r := New(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		r.Seed(seed)
	})
	if allocs != 0 {
		t.Fatalf("Seed allocates %v per call, want 0", allocs)
	}
}

// TestNorm6MatchesScalar pins Norm6 to six scalar NormFloat64 draws —
// including across refill boundaries and slow-path rejections, which the
// long run below crosses many times.
func TestNorm6MatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 0} {
		ref := New(seed)
		got := New(seed)
		var out [6]float64
		for n := 0; n < 50000; n++ {
			got.Norm6(&out)
			for d := 0; d < 6; d++ {
				want := ref.NormFloat64()
				if math.Float64bits(want) != math.Float64bits(out[d]) {
					t.Fatalf("seed %d call %d draw %d: %v != %v", seed, n, d, out[d], want)
				}
			}
		}
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(*Rand){
		"Intn":   func(r *Rand) { r.Intn(0) },
		"Int31n": func(r *Rand) { r.Int31n(-1) },
		"Int63n": func(r *Rand) { r.Int63n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(<=0) did not panic", name)
				}
			}()
			fn(New(1))
		}()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64()
	}
	_ = s
}

func BenchmarkStdNormFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64()
	}
	_ = s
}

// BenchmarkSeed is one fault-class re-seed of fault.Plan.
func BenchmarkSeed(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

func BenchmarkStdSeed(b *testing.B) {
	src := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}
