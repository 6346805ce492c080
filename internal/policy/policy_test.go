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

// B and C are the hysteresis windows in 1 ms samples.
const (
	B = int(BreachAfter / ms)
	C = int(ClearAfter / ms)
)

// drive feeds one sample per millisecond from a health string: 'h' is
// healthy, 'b' is breaching. Returns the state after each sample.
func drive(c *Controller, pattern string) []State {
	out := make([]State, len(pattern))
	for i, ch := range pattern {
		out[i] = c.Observe(time.Duration(i)*ms, ms, ch == 'h')
	}
	return out
}

// rep is n copies of the sample ch.
func rep(ch byte, n int) string { return strings.Repeat(string(ch), n) }

// span is n consecutive samples in one state.
type span struct {
	s State
	n int
}

// expand lists the states of consecutive spans sample by sample.
func expand(spans ...span) []State {
	var out []State
	for _, sp := range spans {
		for i := 0; i < sp.n; i++ {
			out = append(out, sp.s)
		}
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

// TestTransitionTable pins the full state machine against hand-computed
// sequences. Hysteresis windows are boundary-inclusive: a breach clock
// started at t fails over at t+BreachAfter exactly.
func TestTransitionTable(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		want    []State
	}{
		{
			name: "sustained breach fails over at the boundary",
			// b@1 starts the clock; b@1+B is BreachAfter later → SECONDARY.
			pattern: "h" + rep('b', B+1),
			want:    expand(span{Primary, 1}, span{BreachPending, B}, span{Secondary, 1}),
		},
		{
			name:    "transient breach rides through",
			pattern: "h" + rep('b', B) + "hh",
			want:    expand(span{Primary, 1}, span{BreachPending, B}, span{Primary, 2}),
		},
		{
			name: "clear window matures at the boundary",
			// b@0 starts the clock, b@B fails over; h@B+1 starts the
			// clear clock, h@B+1+C is ClearAfter later → PRIMARY.
			pattern: rep('b', B+1) + rep('h', C+1),
			want: expand(span{BreachPending, B}, span{Secondary, 1},
				span{ReadmitPending, C}, span{Primary, 1}),
		},
		{
			name:    "breach during clear window restarts it",
			pattern: rep('b', B+1) + "hhb" + rep('h', C+1),
			want: expand(span{BreachPending, B}, span{Secondary, 1}, span{ReadmitPending, 2},
				span{Secondary, 1}, span{ReadmitPending, C}, span{Primary, 1}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drive(New(nil), tc.pattern)
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("sample %d (%c): state %v, want %v", i, tc.pattern[i], got[i], tc.want[i])
				}
			}
		})
	}
}

// TestNoFlapDwellFloor: every completed dwell is at least ClearAfter, for
// a pattern of clear windows broken one sample short — the structural
// no-flap guarantee.
func TestNoFlapDwellFloor(t *testing.T) {
	pattern := strings.Repeat(rep('b', B+1)+rep('h', C-1)+"b"+rep('h', C+1)+"bbbhh", 20)
	c := New(nil)
	drive(c, pattern)
	if c.Failovers() == 0 || c.Readmits() == 0 {
		t.Fatalf("pattern must exercise both transitions: failovers=%d readmits=%d",
			c.Failovers(), c.Readmits())
	}
	if d := c.MinSecondaryDwell(); d < ClearAfter {
		t.Fatalf("min dwell %v below clear window %v — policy flapped", d, ClearAfter)
	}
}

// failoverAndBack fails over at sample B, rides one more breaching
// sample, and re-admits C samples after the first healthy one: 2+C
// samples on the secondary, a dwell of (C+2) ms.
var failoverAndBack = rep('b', B+2) + rep('h', C+1)

// secondaryOnePerSample is the secondary time failoverAndBack accrues, in
// the counter's accumulation order (one Add per sample) so float
// compares are exact.
func secondaryOnePerSample() float64 {
	var secs float64
	for i := 0; i < 2+C; i++ {
		secs += ms.Seconds()
	}
	return secs
}

func TestCountersAndSecondaryTime(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(NewMetrics(reg))
	drive(c, failoverAndBack)
	if c.Failovers() != 1 || c.Readmits() != 1 {
		t.Fatalf("failovers=%d readmits=%d, want 1/1", c.Failovers(), c.Readmits())
	}
	if got, want := reg.Snapshot().Counters["cyclops_policy_secondary_seconds"], secondaryOnePerSample(); got != want {
		t.Fatalf("cyclops_policy_secondary_seconds = %v, want %v", got, want)
	}
	// Dwell: failed over at t=B ms, readmitted at t=B+2+C ms.
	if got, want := c.MinSecondaryDwell(), time.Duration(C+2)*ms; got != want {
		t.Fatalf("MinSecondaryDwell = %v, want %v", got, want)
	}
	if c.state != Primary {
		t.Fatalf("final state %v, want PRIMARY", c.state)
	}
}

func TestNoDwellBeforeFirstReadmit(t *testing.T) {
	c := New(nil)
	drive(c, rep('b', B+2))
	if c.Failovers() != 1 {
		t.Fatalf("failovers=%d, want 1", c.Failovers())
	}
	if got := c.MinSecondaryDwell(); got != 0 {
		t.Fatalf("MinSecondaryDwell with no completed dwell = %v, want 0", got)
	}
}

func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(NewMetrics(reg))
	drive(c, failoverAndBack)
	exp := reg.Exposition()
	for _, want := range []string{
		"cyclops_policy_failover_total 1",
		"cyclops_policy_readmit_total 1",
		"cyclops_policy_secondary_seconds " + strconv.FormatFloat(secondaryOnePerSample(), 'g', -1, 64),
		"cyclops_policy_secondary_dwell_seconds_count 1",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
}

func TestNilMetricsSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatal("NewMetrics(nil) must return nil")
	}
	// Exercise every transition with nil metrics.
	c := New(nil)
	drive(c, failoverAndBack+"hbb"+rep('h', 3)+rep('b', B+1)+"hb"+rep('h', C+1))
	if c.Failovers() != 2 || c.Readmits() != 2 {
		t.Fatalf("failovers=%d readmits=%d, want 2/2", c.Failovers(), c.Readmits())
	}
}

// TestDeterminism: two controllers fed the same sequence agree exactly.
func TestDeterminism(t *testing.T) {
	pattern := strings.Repeat("bbh"+rep('b', B+3)+"hhh"+rep('h', C/2)+"b"+rep('h', C+7), 10)
	a := drive(New(nil), pattern)
	b := drive(New(nil), pattern)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// stateMachineDepth is the longest verdict sequence, in runs,
// TestStateMachineSmallScope enumerates.
const stateMachineDepth = 4

// TestStateMachineSmallScope checks the controller exhaustively at small
// scope: every alternating verdict sequence of 1 to stateMachineDepth
// runs, either verdict first, each run 1, B−1, B, B+1, C−1, C or C+1
// one-millisecond ticks long (the lengths around both window
// boundaries). A controller fed each run through ObserveRun matches a
// twin fed one Observe per tick — state after every run, Deadline,
// failover and readmit counts, shortest dwell, and the exposition of a
// registry attached to each — every completed dwell is at least
// ClearAfter, and failovers − readmits is 0 or 1.
func TestStateMachineSmallScope(t *testing.T) {
	lengths := []int{1, B - 1, B, B + 1, C - 1, C, C + 1}
	seq := make([]int, stateMachineDepth)
	sequences := 0
	var walk func(depth int)
	walk = func(depth int) {
		if depth > 0 {
			for _, firstHealthy := range []bool{false, true} {
				checkRuns(t, seq[:depth], firstHealthy)
				sequences++
			}
		}
		if depth == len(seq) {
			return
		}
		for _, n := range lengths {
			seq[depth] = n
			walk(depth + 1)
		}
	}
	walk(0)
	want, perDepth := 0, 2
	for d := 1; d <= stateMachineDepth; d++ {
		perDepth *= len(lengths)
		want += perDepth
	}
	if sequences != want {
		t.Fatalf("enumerated %d sequences, want %d", sequences, want)
	}
}

// checkRuns drives the twins through runs of alternating verdicts,
// starting with firstHealthy, and checks the invariants
// TestStateMachineSmallScope lists.
func checkRuns(t *testing.T, runs []int, firstHealthy bool) {
	t.Helper()
	regRun, regObs := obs.NewRegistry(), obs.NewRegistry()
	run, one := New(NewMetrics(regRun)), New(NewMetrics(regObs))
	at, healthy := time.Duration(0), firstHealthy
	for i, n := range runs {
		want := one.state
		for j := 0; j < n; j++ {
			want = one.Observe(at+time.Duration(j)*ms, ms, healthy)
		}
		if got := run.ObserveRun(at, ms, n, healthy); got != want {
			t.Fatalf("runs %v (first healthy %v), run %d: ObserveRun = %v, Observe = %v", runs, firstHealthy, i, got, want)
		}
		if run.Deadline() != one.Deadline() {
			t.Fatalf("runs %v (first healthy %v), run %d: Deadline %v vs %v", runs, firstHealthy, i, run.Deadline(), one.Deadline())
		}
		at += time.Duration(n) * ms
		checkDeadline(t, run, at)
		if d := run.Failovers() - run.Readmits(); d != 0 && d != 1 {
			t.Fatalf("runs %v (first healthy %v), run %d: failovers − readmits = %d", runs, firstHealthy, i, d)
		}
		healthy = !healthy
	}
	if run.Failovers() != one.Failovers() || run.Readmits() != one.Readmits() ||
		run.MinSecondaryDwell() != one.MinSecondaryDwell() {
		t.Fatalf("runs %v (first healthy %v): ObserveRun counters %d/%d/%v, Observe %d/%d/%v", runs, firstHealthy,
			run.Failovers(), run.Readmits(), run.MinSecondaryDwell(),
			one.Failovers(), one.Readmits(), one.MinSecondaryDwell())
	}
	if run.Readmits() > 0 && run.MinSecondaryDwell() < ClearAfter {
		t.Fatalf("runs %v (first healthy %v): dwell %v below ClearAfter", runs, firstHealthy, run.MinSecondaryDwell())
	}
	if got, want := regRun.Exposition(), regObs.Exposition(); got != want {
		t.Fatalf("runs %v (first healthy %v): ObserveRun exposition:\n%s\nObserve exposition:\n%s", runs, firstHealthy, got, want)
	}
}

// FuzzObserveRunMatchesObserve: a controller fed random runs of equal
// verdicts through ObserveRun ends every run exactly where a twin fed the
// same samples one Observe call at a time does — state, counters,
// shortest dwell and the exposition of a registry attached to each, which
// carries the secondary time — and Deadline marks the first sample time
// at which an agreeing sample moves a pending state.
func FuzzObserveRunMatchesObserve(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, tickUS uint16, runs uint8) {
		tick := time.Duration(tickUS%2000) * time.Microsecond
		rng := rand.New(rand.NewSource(seed))
		regRun, regObs := obs.NewRegistry(), obs.NewRegistry()
		run, one := New(NewMetrics(regRun)), New(NewMetrics(regObs))
		at := time.Duration(rng.Int63n(int64(time.Second)))
		for i := 0; i < int(runs); i++ {
			// Up to 1.2 s per run, so both windows mature inside one.
			n, healthy := rng.Intn(600), rng.Intn(2) == 0
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
