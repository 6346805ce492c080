package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// staticTrace returns a trace with no motion.
func staticTrace(n int) trace.Trace {
	tr := trace.Trace{ID: "static"}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			At:   time.Duration(i) * trace.SampleInterval,
			Pose: geom.PoseIdentity(),
		})
	}
	return tr
}

// spinningTrace rotates steadily at rate rad/s.
func spinningTrace(n int, rate float64) trace.Trace {
	tr := trace.Trace{ID: "spin"}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * trace.SampleInterval
		tr.Samples = append(tr.Samples, trace.Sample{
			At:   at,
			Pose: geom.NewPose(geom.QuatFromAxisAngle(geom.V(0, 1, 0), rate*at.Seconds()), geom.Zero),
		})
	}
	return tr
}

func TestStaticTraceFullyOn(t *testing.T) {
	r := SimulateTrace(staticTrace(600), Paper25G())
	if r.OnFraction != 1 {
		t.Errorf("static trace on fraction = %v", r.OnFraction)
	}
	if r.OffSlots != 0 {
		t.Errorf("static trace off slots = %d", r.OffSlots)
	}
	if r.Slots < 5900 || r.Slots > 6000 {
		t.Errorf("slots = %d, want ≈5990 for 6 s at 1 ms", r.Slots)
	}
}

func TestSlowRotationStaysOn(t *testing.T) {
	// 10 deg/s: drift per 12 ms ≈ 2.1 mrad + 2.6 mrad residual < 8.73.
	r := SimulateTrace(spinningTrace(600, 10*math.Pi/180), Paper25G())
	if r.OnFraction < 0.999 {
		t.Errorf("10 deg/s on fraction = %v", r.OnFraction)
	}
}

func TestFastRotationDisconnects(t *testing.T) {
	// 60 deg/s: drift per 10 ms ≈ 10.5 mrad ≫ tolerance even before the
	// residual — the link must spend much of its time off.
	r := SimulateTrace(spinningTrace(600, 60*math.Pi/180), Paper25G())
	if r.OnFraction > 0.7 {
		t.Errorf("60 deg/s on fraction = %v — too optimistic", r.OnFraction)
	}
	if r.OffSlots == 0 {
		t.Error("no off slots at 60 deg/s")
	}
}

func TestThresholdRotationRegime(t *testing.T) {
	// The §5.3.1 pure-angular threshold (~25 deg/s) should emerge from
	// the §5.4 constants: below it mostly on, well above it mostly off.
	below := SimulateTrace(spinningTrace(600, 20*math.Pi/180), Paper25G())
	above := SimulateTrace(spinningTrace(600, 45*math.Pi/180), Paper25G())
	if below.OnFraction < 0.95 {
		t.Errorf("20 deg/s on fraction = %v, want ≈1", below.OnFraction)
	}
	if above.OnFraction > below.OnFraction {
		t.Error("faster rotation should not be more available")
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	var empty trace.Trace
	r := SimulateTrace(empty, Paper25G())
	if r.Slots != 0 {
		t.Error("empty trace produced slots")
	}
	p := Paper25G()
	p.Slot = 0
	if r := SimulateTrace(staticTrace(10), p); r.Slots != 0 {
		t.Error("zero slot length produced slots")
	}
}

func TestFrameHistogram(t *testing.T) {
	r := SimulateTrace(spinningTrace(600, 30*math.Pi/180), Paper25G())
	var frames, off int
	for k, n := range r.FrameHistogram {
		frames += n
		off += k * n
	}
	// Histogram accounts for every slot's frame and every off slot.
	wantFrames := (r.Slots + 29) / 30
	if frames != wantFrames {
		t.Errorf("histogram frames = %d, want %d", frames, wantFrames)
	}
	if off != r.OffSlots {
		t.Errorf("histogram off slots = %d, want %d", off, r.OffSlots)
	}
}

// TestFrameFoldAddRunMatchesAdd: addRun's closed form leaves the fold,
// and the result finish writes, exactly where n add calls leave them —
// over random run sequences whose lengths straddle the 30-slot frame
// (runs that stay inside the open frame, fill it to the edge, and span
// several whole frames).
func TestFrameFoldAddRunMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		var got, want frameFold
		for r := rng.Intn(40); r > 0; r-- {
			n := rng.Intn(31)
			if rng.Intn(4) == 0 {
				n = 30*rng.Intn(5) + rng.Intn(31)
			}
			off := rng.Intn(2) == 0
			got.addRun(n, off)
			for i := 0; i < n; i++ {
				want.add(off)
			}
			if got != want {
				t.Fatalf("sequence %d: addRun(%d, %v) left %+v, %d add calls %+v", seq, n, off, got, n, want)
			}
		}
		var g, w TraceResult
		got.finish(&g)
		want.finish(&w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("sequence %d: finish %+v, want %+v", seq, g, w)
		}
	}
}

func TestScatteredOffFraction(t *testing.T) {
	var r TraceResult
	r.OffSlots = 10
	r.FrameHistogram[2] = 2 // 4 off slots in light frames
	r.FrameHistogram[6] = 1 // 6 in a heavy frame
	got := r.ScatteredOffFraction(5)
	if math.Abs(got-0.4) > 1e-9 {
		t.Errorf("scattered fraction = %v, want 0.4", got)
	}
	// No off slots: zero.
	var z TraceResult
	if z.ScatteredOffFraction(10) != 0 {
		t.Error("zero-off trace scattered fraction nonzero")
	}
}

func TestFig16CorpusRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus simulation in -short mode")
	}
	src := trace.Source{Seed: 16, N: trace.DatasetTraces, Length: time.Minute, Origin: geom.V(0.35, 0.25, 1.0)}
	c := corpusResult(t, src, CorpusOptions{KeepPerTrace: true, Registry: obs.NewRegistry()})
	t.Logf("%v", c)

	// Fig 16: operational ≈98.6 % of slots on average, per-trace range
	// ≈95 % to 99.98 %.
	if c.MeanOnFraction < 0.95 || c.MeanOnFraction > 0.9999 {
		t.Errorf("mean on fraction = %.4f, want ≈0.986", c.MeanOnFraction)
	}
	if c.MinOnFraction < 0.85 {
		t.Errorf("worst trace on fraction = %.4f — too pessimistic", c.MinOnFraction)
	}
	if c.MaxOnFraction < 0.99 {
		t.Errorf("best trace on fraction = %.4f, want ≈0.9998", c.MaxOnFraction)
	}

	// The CDF is monotone from ~0 to 1.
	xs, ys := c.DisconnectionCDF(50)
	if len(xs) != 50 {
		t.Fatalf("CDF has %d points", len(xs))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Error("CDF does not reach 1")
	}

	// User-experience metric: most off slots are scattered (>60 % in
	// frames with <10 off slots).
	var off, scattered float64
	for _, r := range c.PerTrace {
		off += float64(r.OffSlots)
		scattered += r.ScatteredOffFraction(10) * float64(r.OffSlots)
	}
	if off > 0 {
		frac := scattered / off
		t.Logf("scattered off-slot fraction: %.2f", frac)
		if frac < 0.3 {
			t.Errorf("scattered fraction = %.2f, paper observes >0.6", frac)
		}
	}
}

// corpusResult runs a clean corpus through RunCorpus and returns it in
// the per-trace CorpusResult form Fig 16 renders from.
func corpusResult(t *testing.T, src CorpusSource, opts CorpusOptions) CorpusResult {
	t.Helper()
	run, err := RunCorpus(src, opts)
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	c := CorpusResult{
		MeanOnFraction: run.MeanOnFraction,
		MinOnFraction:  run.MinOnFraction,
		MaxOnFraction:  run.MaxOnFraction,
		Metrics:        run.Metrics,
	}
	for _, r := range run.PerTrace {
		c.PerTrace = append(c.PerTrace, r.TraceResult)
	}
	return c
}

// TestSimulateCorpusWorkerDeterminism: simulating a clean corpus with any
// worker count — including the default pool — produces a result
// bit-identical to the serial loop, on one-trace shards (each trace's
// metrics folded on its own) as on the default partition.
func TestSimulateCorpusWorkerDeterminism(t *testing.T) {
	origin := geom.V(0.35, 0.25, 1.0)
	traces := make([]trace.Trace, 40)
	for i := range traces {
		traces[i] = trace.Generate(5, i, 10*time.Second, origin)
	}
	for _, shard := range []int{1, 0} {
		run := func(workers int) CorpusResult {
			return corpusResult(t, TraceSlice(traces), CorpusOptions{
				Workers: workers, ShardSize: shard, KeepPerTrace: true, Registry: obs.NewRegistry(),
			})
		}
		serial := run(1)
		for _, workers := range []int{4, 8, 0} {
			if got := run(workers); !reflect.DeepEqual(got, serial) {
				t.Errorf("shard=%d workers=%d: CorpusResult differs from serial", shard, workers)
			}
		}
	}
}

func TestCorpusEmpty(t *testing.T) {
	c := corpusResult(t, TraceSlice(nil), CorpusOptions{KeepPerTrace: true, Registry: obs.NewRegistry()})
	if c.MeanOnFraction != 0 || len(c.PerTrace) != 0 {
		t.Error("empty corpus nonzero")
	}
	xs, ys := c.DisconnectionCDF(10)
	if xs != nil || ys != nil {
		t.Error("empty corpus CDF nonempty")
	}
}
