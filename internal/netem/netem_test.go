package netem

import (
	"math"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestStreamSteadyState(t *testing.T) {
	s := NewStream()
	// 500 ms of a clean 9.4 Gbps link at 1 ms ticks.
	for i := 0; i < 500; i++ {
		s.Tick(time.Duration(i)*ms, ms, true, 9.4)
	}
	ws := s.Finish()
	if len(ws) < 9 {
		t.Fatalf("got %d windows, want ≈10", len(ws))
	}
	// After the initial ramp, windows sit at the line rate.
	for _, w := range ws[4:] {
		if math.Abs(w.Gbps-9.4) > 0.1 {
			t.Errorf("window at %v = %.2f Gbps, want 9.4", w.Start, w.Gbps)
		}
	}
	if s.packets == 0 {
		t.Error("no packets accounted")
	}
}

func TestStreamOutageAndRamp(t *testing.T) {
	s := NewStream()
	state := func(i int) bool { return i < 100 || i >= 200 }
	for i := 0; i < 500; i++ {
		s.Tick(time.Duration(i)*ms, ms, state(i), 9.4)
	}
	ws := s.Finish()
	// Windows fully inside the outage read zero.
	var sawZero, sawFull bool
	for _, w := range ws {
		if w.Start >= 100*ms && w.Start+50*ms <= 200*ms && w.Gbps == 0 {
			sawZero = true
		}
		if w.Start >= 400*ms && math.Abs(w.Gbps-9.4) < 0.1 {
			sawFull = true
		}
	}
	if !sawZero {
		t.Error("no zero window during outage")
	}
	if !sawFull {
		t.Error("no recovery to full rate")
	}
	// The first window after recovery is partial (slow-start ramp).
	for _, w := range ws {
		if w.Start == 200*ms {
			if w.Gbps >= 9.0 {
				t.Errorf("window right after recovery = %.2f Gbps — ramp missing", w.Gbps)
			}
		}
	}
}

func TestStreamPacketAccountingCarriesRemainder(t *testing.T) {
	// At 10 Gbps over 1 ms ticks each tick delivers 833.33 packets.
	// Truncating per tick (the old accounting) loses the 0.33 every
	// tick — 333 packets per second, ~0.04 % of traffic gone. The total
	// over N ticks must match total_bits/8/MTU within one packet.
	s := NewStream()
	s.RampTime = 0
	const ticks = 1000
	for i := 0; i < ticks; i++ {
		s.Tick(time.Duration(i)*ms, ms, true, 10)
	}
	totalBits := 10e9 * (ticks * ms).Seconds()
	want := totalBits / 8 / float64(s.MTU) // 833333.33
	if got := float64(s.packets); math.Abs(got-want) > 1 {
		t.Errorf("packets = %.0f, want %.2f ± 1 (per-tick truncation?)", got, want)
	}

	// The remainder must also survive ramps, where per-tick fractions
	// vary: total packet count still tracks total delivered bits.
	s2 := NewStream()
	var bits float64
	for i := 0; i < 400; i++ {
		up := i%100 < 60 // outage every 100 ms; ramp on recovery
		s2.Tick(time.Duration(i)*ms, ms, up, 9.4)
		if up {
			rate := 9.4
			sinceUp := time.Duration(i%100) * ms
			if sinceUp < s2.RampTime {
				rate *= float64(sinceUp) / float64(s2.RampTime)
			}
			bits += rate * 1e9 * ms.Seconds()
		}
	}
	want2 := bits / 8 / float64(s2.MTU)
	if got := float64(s2.packets); math.Abs(got-want2) > 1 {
		t.Errorf("ramped packets = %.0f, want %.2f ± 1", got, want2)
	}
}

func TestStreamWindowRolloverGaps(t *testing.T) {
	// Sparse ticks must still produce continuous windows.
	s := NewStream()
	s.Tick(0, ms, true, 10)
	s.Tick(230*ms, ms, true, 10)
	ws := s.Finish()
	// Four complete windows (0-50, 50-100, 100-150, 150-200); the window
	// containing the 230 ms tick is incomplete and dropped.
	if len(ws) != 4 {
		t.Fatalf("rollover produced %d windows, want 4", len(ws))
	}
	if ws[1].Gbps != 0 || ws[2].Gbps != 0 {
		t.Error("idle windows not zero")
	}
}

func TestStreamMeanGbps(t *testing.T) {
	s := NewStream()
	s.RampTime = 0
	for i := 0; i < 200; i++ {
		s.Tick(time.Duration(i)*ms, ms, i%2 == 0, 10)
	}
	s.Finish()
	mean := s.MeanGbps()
	if math.Abs(mean-5) > 0.3 {
		t.Errorf("50%%-duty mean = %.2f Gbps, want ≈5", mean)
	}
}

func TestVideoProfiles(t *testing.T) {
	// §2.1: 8K RGB 30 fps ≈ 24 Gbps.
	if g := Video8K30.Gbps(); math.Abs(g-23.9) > 0.5 {
		t.Errorf("8K30 = %.1f Gbps, want ≈24", g)
	}
	if g := Video4K30.Gbps(); math.Abs(g-6.0) > 0.2 {
		t.Errorf("4K30 = %.1f Gbps, want ≈6", g)
	}
	if g := Video4K90.Gbps(); math.Abs(g-17.9) > 0.5 {
		t.Errorf("4K90 = %.1f Gbps, want ≈17.9", g)
	}
}

func TestFrameStreamerCleanLink(t *testing.T) {
	// A 10G link carries 4K30 (6 Gbps) without late frames.
	f := NewFrameStreamer(Video4K30)
	for i := 0; i < 2000; i++ {
		f.Tick(time.Duration(i)*ms, ms, true, 9.4)
	}
	st := f.Stats()
	if st.Generated < 55 {
		t.Fatalf("generated %d frames in 2 s, want ≈60", st.Generated)
	}
	if st.Dropped > 0 {
		t.Errorf("dropped %d frames on a clean link", st.Dropped)
	}
	if st.Late > 1 {
		t.Errorf("%d late frames on a clean link", st.Late)
	}
	if st.DeliveredFraction() < 0.9 {
		t.Errorf("delivered fraction %.2f", st.DeliveredFraction())
	}
}

func TestFrameStreamerOverloadedLink(t *testing.T) {
	// 8K30 (24 Gbps) cannot fit a 10G link: frames drop.
	f := NewFrameStreamer(Video8K30)
	for i := 0; i < 2000; i++ {
		f.Tick(time.Duration(i)*ms, ms, true, 9.4)
	}
	st := f.Stats()
	if st.Dropped == 0 {
		t.Error("no drops on an oversubscribed link")
	}
	// Raw 8K30 (23.9 Gbps) marginally exceeds even the 25G goodput
	// (23.5 Gbps) — the §2.1 argument for still-higher-rate links —
	// but 4K90 (17.9 Gbps) fits with headroom.
	f2 := NewFrameStreamer(Video4K90)
	for i := 0; i < 2000; i++ {
		f2.Tick(time.Duration(i)*ms, ms, true, 23.5)
	}
	if st2 := f2.Stats(); st2.Dropped > 0 || st2.Late > 1 {
		t.Errorf("25G link struggled with 4K90: %v", st2)
	}
}

func TestFrameStreamerOutage(t *testing.T) {
	f := NewFrameStreamer(Video4K30)
	for i := 0; i < 2000; i++ {
		up := i < 500 || i > 800
		f.Tick(time.Duration(i)*ms, ms, up, 9.4)
	}
	st := f.Stats()
	if st.Dropped == 0 {
		t.Error("300 ms outage should drop frames (queue cap)")
	}
	if st.MaxDelay < 50*ms {
		t.Errorf("max delay %v too small for an outage", st.MaxDelay)
	}
	if st.DeliveredFraction() > 0.95 {
		t.Errorf("delivered fraction %.2f too high with outage", st.DeliveredFraction())
	}
}

// Frozen ticks suspend accounting: any 50 ms window containing a frozen
// tick is dropped at rollover rather than reported as a fabricated
// zero-goodput measurement, and TCP re-ramps when normal ticks resume.
func TestStreamFreezeTick(t *testing.T) {
	s := NewStream()
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * ms
		if i >= 100 && i < 200 {
			s.FreezeTick(at, ms)
		} else {
			s.Tick(at, ms, true, 9.4)
		}
	}
	ws := s.Finish()
	// 500 ticks complete nine windows; the two the freeze touches
	// (100 ms and 150 ms) are dropped.
	if len(ws) != 7 {
		t.Fatalf("Finish returned %d windows, want 9 completed less 2 frozen", len(ws))
	}
	for _, w := range ws {
		if w.Start >= 100*ms && w.Start < 200*ms {
			t.Errorf("window at %v reported during the frozen span", w.Start)
		}
		if w.Gbps < 0 {
			t.Errorf("window at %v has negative goodput %v", w.Start, w.Gbps)
		}
	}
	// TCP restarts from slow start after the freeze.
	var after []Window
	for _, w := range ws {
		if w.Start >= 200*ms {
			after = append(after, w)
		}
	}
	if len(after) < 2 {
		t.Fatal("no windows after the freeze")
	}
	if after[0].Gbps >= 9.0 {
		t.Errorf("first window after freeze = %.2f Gbps — re-ramp missing", after[0].Gbps)
	}
	if last := after[len(after)-1]; math.Abs(last.Gbps-9.4) > 0.1 {
		t.Errorf("did not recover to line rate: %.2f Gbps", last.Gbps)
	}
}

// A freeze-only stream reports nothing and never panics.
func TestStreamAllFrozen(t *testing.T) {
	s := NewStream()
	for i := 0; i < 200; i++ {
		s.FreezeTick(time.Duration(i)*ms, ms)
	}
	ws := s.Finish()
	if len(ws) != 0 {
		t.Errorf("all-frozen stream reported %d windows", len(ws))
	}
	// Live ticks after the freeze complete windows only past it: the four
	// frozen windows were rolled over and dropped, not reported.
	for i := 200; i < 400; i++ {
		s.Tick(time.Duration(i)*ms, ms, true, 9.4)
	}
	ws = s.Finish()
	if len(ws) != 3 || ws[0].Start != 200*ms {
		t.Errorf("after the freeze Finish returned %v, want the 200, 250 and 300 ms windows", ws)
	}
}
