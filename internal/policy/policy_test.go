package policy

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
)

const ms = time.Millisecond

// drive feeds one sample per millisecond from a health string: 'h' is
// healthy, 'b' is breaching. Returns the state after each sample.
func drive(c *Controller, pattern string) []State {
	out := make([]State, len(pattern))
	for i, ch := range pattern {
		out[i] = c.Observe(time.Duration(i)*ms, ms, ch == 'h')
	}
	return out
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Primary:        "PRIMARY",
		BreachPending:  "BREACH-PENDING",
		Secondary:      "SECONDARY",
		ReadmitPending: "READMIT-PENDING",
		State(9):       "policy.State(9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
	if Primary.OnSecondary() || BreachPending.OnSecondary() {
		t.Error("primary-side states must not report OnSecondary")
	}
	if !Secondary.OnSecondary() || !ReadmitPending.OnSecondary() {
		t.Error("secondary-side states must report OnSecondary")
	}
}

func TestOptionsDefaultsAndValidate(t *testing.T) {
	var o Options
	o.Defaults()
	if o.BreachAfter != 50*ms || o.ClearAfter != 500*ms {
		t.Fatalf("defaults = %+v, want 50ms/500ms", o)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options must validate: %v", err)
	}
	if err := (Options{BreachAfter: -ms}).Validate(); err == nil {
		t.Error("negative BreachAfter must be rejected")
	}
	if err := (Options{ClearAfter: -ms}).Validate(); err == nil {
		t.Error("negative ClearAfter must be rejected")
	}
}

// TestTransitionTable pins the full state machine against hand-computed
// sequences. Hysteresis windows are boundary-inclusive: a breach clock
// started at t fails over at t+BreachAfter exactly.
func TestTransitionTable(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		pattern string
		want    []State
	}{
		{
			name:    "sustained breach fails over at the boundary",
			opts:    Options{BreachAfter: 3 * ms, ClearAfter: 2 * ms},
			pattern: "hbbbb",
			// b@1 starts the clock; b@4 is 3ms after → SECONDARY.
			want: []State{Primary, BreachPending, BreachPending, BreachPending, Secondary},
		},
		{
			name:    "transient breach rides through",
			opts:    Options{BreachAfter: 3 * ms, ClearAfter: 2 * ms},
			pattern: "hbbhh",
			want:    []State{Primary, BreachPending, BreachPending, Primary, Primary},
		},
		{
			name:    "clear window matures at the boundary",
			opts:    Options{BreachAfter: ms, ClearAfter: 3 * ms},
			pattern: "bbhhhh",
			// b@0 starts clock, b@1 fails over; h@2 starts clear clock,
			// h@5 is 3ms after → PRIMARY.
			want: []State{BreachPending, Secondary, ReadmitPending, ReadmitPending, ReadmitPending, Primary},
		},
		{
			name:    "breach during clear window restarts it",
			opts:    Options{BreachAfter: ms, ClearAfter: 3 * ms},
			pattern: "bbhhbhhhh",
			want: []State{BreachPending, Secondary, ReadmitPending, ReadmitPending,
				Secondary, ReadmitPending, ReadmitPending, ReadmitPending, Primary},
		},
		{
			name:    "zero windows default, not instant",
			opts:    Options{},
			pattern: "hbh",
			// Default BreachAfter is 50ms, far beyond this trace.
			want: []State{Primary, BreachPending, Primary},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drive(New(tc.opts, nil), tc.pattern)
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("sample %d (%c): state %v, want %v (full: %v)",
						i, tc.pattern[i], got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestZeroWindowOptionsUseDefaults: explicit sub-millisecond windows give
// immediate transitions (boundary-inclusive with a zero-length clock).
func TestImmediateWindows(t *testing.T) {
	c := New(Options{BreachAfter: time.Nanosecond, ClearAfter: time.Nanosecond}, nil)
	// One nanosecond never elapses on a 1ms grid... but the clock starts
	// at the first breach sample, so the *next* sample matures it.
	got := drive(c, "bbhh")
	want := []State{BreachPending, Secondary, ReadmitPending, Primary}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: state %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestNoFlapDwellFloor: every completed dwell is at least ClearAfter, for
// arbitrary breach patterns — the structural no-flap guarantee.
func TestNoFlapDwellFloor(t *testing.T) {
	opts := Options{BreachAfter: 2 * ms, ClearAfter: 5 * ms}
	// A nasty pattern: short breaches, short clears, repeated.
	pattern := strings.Repeat("bbbbhhbhhhhhhb", 20)
	c := New(opts, nil)
	drive(c, pattern)
	if c.Failovers() == 0 || c.Readmits() == 0 {
		t.Fatalf("pattern must exercise both transitions: failovers=%d readmits=%d",
			c.Failovers(), c.Readmits())
	}
	if d := c.MinSecondaryDwell(); d < opts.ClearAfter {
		t.Fatalf("min dwell %v below clear window %v — policy flapped", d, opts.ClearAfter)
	}
}

func TestCountersAndSecondaryTime(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{BreachAfter: ms, ClearAfter: 2 * ms}, NewMetrics(reg))
	// b@0 clock, b@1 → SECONDARY (2 secondary samples: 1,2? walk it):
	// samples: b0=BREACH, b1=SECONDARY, b2=SECONDARY, h3=READMIT,
	// h4=READMIT, h5=PRIMARY. OnSecondary at 1,2,3,4 → 4ms.
	drive(c, "bbbhhh")
	if c.Failovers() != 1 || c.Readmits() != 1 {
		t.Fatalf("failovers=%d readmits=%d, want 1/1", c.Failovers(), c.Readmits())
	}
	var want float64
	for i := 0; i < 4; i++ {
		want += ms.Seconds()
	}
	if got := reg.Snapshot().Counters["cyclops_policy_secondary_seconds"]; got != want {
		t.Fatalf("cyclops_policy_secondary_seconds = %v, want 4 ms", got)
	}
	// Dwell: failed over at t=1ms, readmitted at t=5ms.
	if got := c.MinSecondaryDwell(); got != 4*ms {
		t.Fatalf("MinSecondaryDwell = %v, want 4ms", got)
	}
	if c.state != Primary {
		t.Fatalf("final state %v, want PRIMARY", c.state)
	}
}

func TestNoDwellBeforeFirstReadmit(t *testing.T) {
	c := New(Options{BreachAfter: ms, ClearAfter: 2 * ms}, nil)
	drive(c, "bbb")
	if got := c.MinSecondaryDwell(); got != 0 {
		t.Fatalf("MinSecondaryDwell with no completed dwell = %v, want 0", got)
	}
}

func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c := New(Options{BreachAfter: ms, ClearAfter: 2 * ms}, m)
	drive(c, "bbbhhh")
	exp := reg.Exposition()
	// Replicate the counter's accumulation order so the float compare is
	// exact (four Add(0.001) calls, not one Add(0.004)).
	var secs float64
	for i := 0; i < 4; i++ {
		secs += ms.Seconds()
	}
	for _, want := range []string{
		"cyclops_policy_failover_total 1",
		"cyclops_policy_readmit_total 1",
		"cyclops_policy_secondary_seconds " + strconv.FormatFloat(secs, 'g', -1, 64),
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if !strings.Contains(exp, "cyclops_policy_secondary_dwell_seconds_count 1") {
		t.Errorf("dwell histogram not observed:\n%s", exp)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatal("NewMetrics(nil) must return nil")
	}
	c := New(Options{BreachAfter: ms, ClearAfter: ms}, nil)
	drive(c, "bbbhhbbhh") // exercise every transition with nil metrics
}

// TestDeterminism: two controllers fed the same sequence agree exactly.
func TestDeterminism(t *testing.T) {
	pattern := strings.Repeat("bbhbhhhbbbbhhhhhh", 50)
	a := drive(New(Options{BreachAfter: 3 * ms, ClearAfter: 4 * ms}, nil), pattern)
	b := drive(New(Options{BreachAfter: 3 * ms, ClearAfter: 4 * ms}, nil), pattern)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// FuzzObserveRunMatchesObserve: a controller fed random runs of equal
// verdicts through ObserveRun ends every run exactly where a twin fed the
// same samples one Observe call at a time does — state, counters,
// shortest dwell and the exposition of a registry attached to each, which
// carries the secondary time — and Deadline marks the first sample time at which an agreeing
// sample moves a pending state.
func FuzzObserveRunMatchesObserve(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, breachUS, clearUS uint16, tickUS uint16, runs uint8) {
		opts := Options{BreachAfter: time.Duration(breachUS) * time.Microsecond, ClearAfter: time.Duration(clearUS) * time.Microsecond}
		tick := time.Duration(tickUS%2000) * time.Microsecond
		rng := rand.New(rand.NewSource(seed))
		regRun, regObs := obs.NewRegistry(), obs.NewRegistry()
		run, one := New(opts, NewMetrics(regRun)), New(opts, NewMetrics(regObs))
		at := time.Duration(rng.Int63n(int64(time.Second)))
		for i := 0; i < int(runs); i++ {
			n, healthy := rng.Intn(64), rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				n = rng.Intn(3) // single samples and empty runs
			}
			want := one.state
			for j := 0; j < n; j++ {
				want = one.Observe(at+time.Duration(j)*tick, tick, healthy)
			}
			if got := run.ObserveRun(at, tick, n, healthy); got != want || run.state != want {
				t.Fatalf("run %d (n=%d healthy=%v at %v): ObserveRun = %v, Observe = %v", i, n, healthy, at, got, want)
			}
			at += time.Duration(n) * tick
			checkDeadline(t, run, at)
		}
		// The exposition check below covers the secondary time.
		if run.Failovers() != one.Failovers() || run.Readmits() != one.Readmits() ||
			run.MinSecondaryDwell() != one.MinSecondaryDwell() {
			t.Fatalf("ObserveRun counters %d/%d/%v, Observe %d/%d/%v",
				run.Failovers(), run.Readmits(), run.MinSecondaryDwell(),
				one.Failovers(), one.Readmits(), one.MinSecondaryDwell())
		}
		if got, want := regRun.Exposition(), regObs.Exposition(); got != want {
			t.Fatalf("ObserveRun exposition:\n%s\nObserve exposition:\n%s", got, want)
		}
	})
}

// checkDeadline probes copies of c (metrics detached) with one sample that
// agrees with its state: a pending state holds just before Deadline (when
// that is no earlier than from) and moves at it; a settled one has none.
func checkDeadline(t *testing.T, c *Controller, from time.Duration) {
	t.Helper()
	healthy := c.state == Primary || c.state == ReadmitPending
	d := c.Deadline()
	if c.state == Primary || c.state == Secondary {
		if d != math.MaxInt64 {
			t.Fatalf("%v: Deadline = %v, want none", c.state, d)
		}
		return
	}
	probe := func(at time.Duration) State {
		cp := *c
		cp.m = nil
		return cp.Observe(at, ms, healthy)
	}
	if d-1 >= from {
		if st := probe(d - 1); st != c.state {
			t.Fatalf("%v moved to %v at Deadline−1ns (%v)", c.state, st, d-1)
		}
	}
	if st := probe(max(d, from)); st == c.state {
		t.Fatalf("%v held at Deadline %v", c.state, d)
	}
}
