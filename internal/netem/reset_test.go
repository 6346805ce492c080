package netem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cyclops/internal/obs"
)

// resetProbe is the run a reset stream must reproduce: a TCP ramp from
// the first tick, an outage and its re-ramp, TickRun pieces at the
// arena's rates, a frozen stretch, and a partial trailing window.
func resetProbe(s *Stream) {
	var at time.Duration
	for i := 0; i < 120; i++ {
		s.Tick(at, ms, true, 9.4)
		at += ms
	}
	s.TickRun(at, ms, 40, false, 23.5)
	at += 40 * ms
	s.TickRun(at, ms, 300, true, 6.25)
	at += 300 * ms
	for i := 0; i < 60; i++ {
		s.FreezeTick(at, ms)
		at += ms
	}
	s.TickRun(at, ms, 237, true, 0.78125)
}

// streamRun is what one probe run reports: its windows, mean and
// flushed metric totals, all as bit patterns.
type streamRun struct {
	windows []string
	mean    uint64
	totals  [4]uint64
}

// probeRun attaches fresh metrics to s, runs resetProbe and finishes.
func probeRun(s *Stream) streamRun {
	reg := obs.NewRegistry()
	s.Metrics = NewStreamMetrics(reg)
	resetProbe(s)
	r := streamRun{windows: windowBits(s.Finish()), mean: math.Float64bits(s.MeanGbps())}
	for i, c := range []*obs.Counter{s.Metrics.Packets, s.Metrics.CarriedBits, s.Metrics.OfferedBits, s.Metrics.Windows} {
		r.totals[i] = math.Float64bits(c.Value())
	}
	return r
}

// checkReset resets s and holds it to a fresh NewStream: every field but
// the kept window storage equal straight after Reset, then the same
// probe run bit for bit.
func checkReset(t *testing.T, name string, s *Stream) {
	t.Helper()
	s.Reset()
	got, want := *s, *NewStream()
	if len(got.windows) != 0 {
		t.Fatalf("%s: Reset left %d windows", name, len(got.windows))
	}
	got.windows = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: after Reset\n got  %+v\n want %+v", name, got, want)
	}
	if g, w := probeRun(s), probeRun(NewStream()); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: reset stream's run differs from a fresh one's:\n got  %+v\n want %+v", name, g, w)
	}
}

// TestStreamReset reuses a stream after Finish from every state a run can
// leave it in: inside a frozen window, mid-ramp, mid-window with a
// fractional packet carried, and with Metrics attached and flushed.
func TestStreamReset(t *testing.T) {
	for _, c := range []struct {
		name  string
		prior func(s *Stream)
	}{
		{"frozen window", func(s *Stream) {
			s.TickRun(0, ms, 70, true, 23.5)
			s.FreezeTick(70*ms, ms)
		}},
		{"mid-ramp", func(s *Stream) {
			s.TickRun(0, ms, 200, true, 23.5)
			s.TickRun(200*ms, ms, 20, false, 23.5)
			s.TickRun(220*ms, ms, 30, true, 6.25)
		}},
		{"mid-window", func(s *Stream) {
			s.TickRun(0, ms, 433, true, 0.78125)
		}},
		{"metrics attached", func(s *Stream) {
			s.Metrics = NewStreamMetrics(obs.NewRegistry())
			s.TickRun(0, ms, 260, true, 6.25)
		}},
	} {
		s := NewStream()
		c.prior(s)
		s.Finish()
		if !s.started || len(s.windows) == 0 && !s.curFrozen {
			t.Fatalf("%s: prior run left no state — test is vacuous", c.name)
		}
		checkReset(t, c.name, s)
		// A second reuse starts from the probe's own end state.
		checkReset(t, c.name+", reused twice", s)
	}
}

// FuzzStreamReset: a stream left in any state by random Tick, TickRun
// and FreezeTick calls, finished or not, with or without Metrics,
// reproduces a fresh stream's run once Reset.
func FuzzStreamReset(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(2), uint8(9), true)
	f.Add(int64(3), uint8(40), false)
	f.Fuzz(func(t *testing.T, seed int64, ops uint8, finish bool) {
		rng := rand.New(rand.NewSource(seed))
		s := NewStream()
		if rng.Intn(2) == 0 {
			s.Metrics = NewStreamMetrics(obs.NewRegistry())
		}
		var at time.Duration
		for k := 0; k < int(ops); k++ {
			n := rng.Intn(120)
			switch rng.Intn(3) {
			case 0:
				s.TickRun(at, ms, n, rng.Intn(2) == 0, tickRates[rng.Intn(len(tickRates))])
			case 1:
				for j := 0; j < n; j++ {
					s.Tick(at+time.Duration(j)*ms, ms, rng.Intn(8) != 0, 9.4)
				}
			default:
				for j := 0; j < n; j++ {
					s.FreezeTick(at+time.Duration(j)*ms, ms)
				}
			}
			at += time.Duration(n) * ms
		}
		if finish {
			s.Finish()
		}
		checkReset(t, "fuzzed", s)
	})
}

// TestStreamResetZeroAllocs: once a stream has run, Reset keeps its
// window storage, so a second run of the same length, Metrics attached,
// allocates nothing.
func TestStreamResetZeroAllocs(t *testing.T) {
	s := NewStream()
	s.Metrics = NewStreamMetrics(obs.NewRegistry())
	resetProbe(s)
	s.Finish()
	m := s.Metrics
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		s.Metrics = m
		resetProbe(s)
		s.Finish()
	})
	if allocs != 0 {
		t.Fatalf("a reset stream's rerun allocates %v times, want 0", allocs)
	}
	if len(s.windows) == 0 || s.packets == 0 {
		t.Fatal("probe delivered nothing — test is vacuous")
	}
}
