package core

import (
	"testing"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/pointing"
)

const tickMs = time.Millisecond

// The supervisor's transition table: TRACKING → REACQUIRING on link loss,
// REACQUIRING → DEGRADED after degradeAfter of continuous downtime, and
// any down state → TRACKING the moment the monitor reports up.
func TestSupervisorStateTransitions(t *testing.T) {
	cases := []struct {
		name string
		step func(s *Supervisor)
		want SupState
	}{
		{"starts tracking", func(s *Supervisor) {}, SupTracking},
		{"stays tracking while up", func(s *Supervisor) {
			for at := time.Duration(0); at < 50*tickMs; at += tickMs {
				s.Observe(at, tickMs, true, true)
			}
		}, SupTracking},
		{"link loss enters reacquiring", func(s *Supervisor) {
			s.Observe(0, tickMs, true, true)
			s.Observe(tickMs, tickMs, false, false)
		}, SupReacquiring},
		{"short outage never degrades", func(s *Supervisor) {
			for at := time.Duration(0); at < 100*tickMs; at += tickMs {
				s.Observe(at, tickMs, false, false)
			}
		}, SupReacquiring},
		{"long outage degrades", func(s *Supervisor) {
			for at := time.Duration(0); at < 600*tickMs; at += tickMs {
				s.Observe(at, tickMs, false, false)
			}
		}, SupDegraded},
		{"recovery returns to tracking", func(s *Supervisor) {
			for at := time.Duration(0); at < 600*tickMs; at += tickMs {
				s.Observe(at, tickMs, false, false)
			}
			s.Observe(600*tickMs, tickMs, true, true)
		}, SupTracking},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSupervisor(RecoveryOptions{}, 1, nil)
			c.step(s)
			if s.State() != c.want {
				t.Errorf("state = %v, want %v", s.State(), c.want)
			}
		})
	}
}

// The HANDOVER extension of the transition table: TRACKING → HANDOVER at
// BeginHandover, HANDOVER → TRACKING on first standby light, HANDOVER →
// REACQUIRING when the monitor's holdover expires while still dark, and a
// failed handover degrades like any other outage.
func TestSupervisorHandoverTransitions(t *testing.T) {
	cases := []struct {
		name string
		step func(s *Supervisor)
		want SupState
	}{
		{"begin enters handover", func(s *Supervisor) {
			s.Observe(0, tickMs, true, true)
			s.BeginHandover(tickMs, 5*tickMs)
		}, SupHandover},
		{"standby light completes handover", func(s *Supervisor) {
			s.Observe(0, tickMs, true, true)
			s.BeginHandover(tickMs, 5*tickMs)
			s.Observe(2*tickMs, tickMs, true, false) // dark, riding holdover
			s.Observe(3*tickMs, tickMs, true, true)  // standby lit
		}, SupTracking},
		{"holdover expiry falls through to reacquiring", func(s *Supervisor) {
			s.Observe(0, tickMs, true, true)
			s.BeginHandover(tickMs, 5*tickMs)
			s.Observe(2*tickMs, tickMs, false, false) // standby never lit
		}, SupReacquiring},
		{"failed handover degrades like any outage", func(s *Supervisor) {
			s.Observe(0, tickMs, true, true)
			s.BeginHandover(tickMs, 5*tickMs)
			for at := 2 * tickMs; at < 700*tickMs; at += tickMs {
				s.Observe(at, tickMs, false, false)
			}
		}, SupDegraded},
		{"mid-outage switch leaves the outage machinery in charge", func(s *Supervisor) {
			s.Observe(0, tickMs, false, false) // already REACQUIRING
			s.BeginHandover(tickMs, 5*tickMs)
		}, SupReacquiring},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSupervisor(RecoveryOptions{}, 1, nil)
			c.step(s)
			if s.State() != c.want {
				t.Errorf("state = %v, want %v", s.State(), c.want)
			}
			if s.Handovers() != 1 {
				t.Errorf("handovers = %d, want 1", s.Handovers())
			}
		})
	}
}

// The handover instruments register only when armed, and record the dark
// time and staleness of each completed switch.
func TestSupervisorHandoverMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSupervisor(RecoveryOptions{}, 1, reg)
	s.ArmHandover(reg)
	s.Observe(0, tickMs, true, true)
	s.BeginHandover(tickMs, 6*tickMs)
	s.Observe(2*tickMs, tickMs, true, false)
	s.Observe(3*tickMs, tickMs, true, true)
	s.Finish()
	exp := reg.Exposition()
	for _, want := range []string{
		"cyclops_handover_total 1",
		"cyclops_handover_seconds_count 1",
		"cyclops_handover_standby_staleness_seconds 0.006",
		"cyclops_supervisor_handover_seconds",
	} {
		if !contains(exp, want) {
			t.Errorf("armed exposition missing %q", want)
		}
	}
	if s.timeIn[SupHandover] == 0 {
		t.Error("no HANDOVER time accumulated")
	}

	// Unarmed supervisors must not register the handover names — a faulted
	// run without standbys exposes the historical metric set byte for byte.
	reg2 := obs.NewRegistry()
	s2 := NewSupervisor(RecoveryOptions{}, 1, reg2)
	s2.Observe(0, tickMs, true, true)
	s2.Finish()
	if contains(reg2.Exposition(), "cyclops_handover") {
		t.Error("unarmed supervisor registered handover metrics")
	}
}

func TestSupervisorOutageAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSupervisor(RecoveryOptions{}, 1, reg)
	down := func(from, ticks int) {
		for i := 0; i < ticks; i++ {
			s.Observe(time.Duration(from+i)*tickMs, tickMs, false, false)
		}
	}
	up := func(from, ticks int) {
		for i := 0; i < ticks; i++ {
			s.Observe(time.Duration(from+i)*tickMs, tickMs, true, true)
		}
	}
	up(0, 10)
	down(10, 700) // one long outage (degrades)
	up(710, 10)
	down(720, 100) // one short outage
	up(820, 10)

	if s.Outages() != 2 || s.Reacquired() != 2 {
		t.Errorf("outages = %d reacquired = %d, want 2/2", s.Outages(), s.Reacquired())
	}
	if s.Down() {
		t.Error("supervisor still down after recovery")
	}
	if got := s.timeIn[SupDegraded]; got == 0 {
		t.Error("no degraded time accumulated")
	}
	total := s.timeIn[SupTracking] + s.timeIn[SupReacquiring] + s.timeIn[SupDegraded]
	if want := 830 * tickMs; total != want {
		t.Errorf("time-in-state total = %v, want %v", total, want)
	}
	s.Finish()
	exp := reg.Exposition()
	for _, want := range []string{"cyclops_outage_total 2", "cyclops_reacquire_seconds_count 2"} {
		if !contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// Backoff grows exponentially (with bounded jitter) and resets on success;
// the spiral arms after spiralAfter consecutive failures.
func TestSupervisorBackoffAndSpiral(t *testing.T) {
	s := NewSupervisor(RecoveryOptions{}, 1, nil)
	if !s.AllowSolve(0) {
		t.Fatal("fresh supervisor blocks solves")
	}
	var prev time.Duration
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 100 * tickMs
		s.SolveFailed(at)
		delay := s.retryAt - at
		if delay <= 0 {
			t.Fatalf("failure %d: non-positive backoff %v", i, delay)
		}
		// Jitter is ±25%, growth ×2 until the cap — so each delay stays
		// within [0.75, 2.5]× the previous one once growing.
		if i > 0 && delay > 0 {
			lo, hi := prev*3/8, prev*3 // wide envelope around ×2 ± jitter
			if delay < lo || delay > hi {
				t.Errorf("failure %d: backoff %v outside [%v, %v] (prev %v)", i, delay, lo, hi, prev)
			}
		}
		prev = delay
		if s.AllowSolve(at) {
			t.Errorf("failure %d: solve allowed during backoff", i)
		}
	}
	if !s.SpiralDue(10 * time.Second) {
		t.Error("spiral not armed after 6 consecutive failures")
	}
	// Spiral probes are deterministic and expand outward.
	s2 := NewSupervisor(RecoveryOptions{}, 1, nil)
	for i := 0; i < 6; i++ {
		s2.SolveFailed(time.Duration(i) * 100 * tickMs)
	}
	fallback := pointing.Voltages{TX1: 1, TX2: -1, RX1: 0.5, RX2: -0.5}
	var lastR float64
	for i := 0; i < 5; i++ {
		at := 10*time.Second + time.Duration(i)*10*tickMs
		v := s.SpiralNext(at, fallback)
		v2 := s2.SpiralNext(at, fallback)
		if v != v2 {
			t.Fatalf("probe %d: spiral not deterministic: %+v vs %+v", i, v, v2)
		}
		d1, d2 := v.TX1-fallback.TX1, v.TX2-fallback.TX2
		r := d1*d1 + d2*d2
		if r <= lastR {
			t.Errorf("probe %d: radius² %v did not grow from %v", i, r, lastR)
		}
		lastR = r
	}
	// Success resets everything.
	s.SolveOK(fallback)
	if !s.AllowSolve(0) || s.SpiralDue(time.Hour) {
		t.Error("SolveOK did not reset backoff/spiral")
	}
}

// StartVoltages passes the warm start through on a healthy solver and
// perturbs from last-good (deterministically per seed) after failures.
func TestSupervisorStartVoltages(t *testing.T) {
	warm := pointing.Voltages{TX1: 1, TX2: 2, RX1: 3, RX2: 4}
	good := pointing.Voltages{TX1: 0.1, TX2: 0.2, RX1: 0.3, RX2: 0.4}

	s := NewSupervisor(RecoveryOptions{}, 7, nil)
	if got := s.StartVoltages(warm); got != warm {
		t.Errorf("healthy start = %+v, want warm %+v", got, warm)
	}
	s.SolveOK(good)
	s.SolveFailed(10 * tickMs)
	got := s.StartVoltages(warm)
	if got == warm || got == good {
		t.Error("post-failure start not perturbed from last-good")
	}
	if !got.Finite() {
		t.Errorf("perturbed start not finite: %+v", got)
	}

	// Same seed → same perturbation sequence.
	s2 := NewSupervisor(RecoveryOptions{}, 7, nil)
	s2.StartVoltages(warm)
	s2.SolveOK(good)
	s2.SolveFailed(10 * tickMs)
	if got2 := s2.StartVoltages(warm); got2 != got {
		t.Errorf("same-seed supervisors diverged: %+v vs %+v", got2, got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
