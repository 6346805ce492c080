package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"cyclops"
	"cyclops/internal/netem"
)

// toySize runs every workload at test scale: four corpus traces, a 2×2
// arena (32 users at 2/m², 8 per TX) and a 1 s closed loop.
var toySize = size{
	traces:     4,
	traceLen:   time.Minute,
	users:      32,
	density:    2,
	usersPerTX: 8,
	program:    time.Second,
}

// declared is BENCHMARK.json's metric and workload lists.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: declared %d metrics, program emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer())
}

// requireMetrics checks that a result is correct and carries exactly the
// named metrics, each with its declared unit.
func requireMetrics(t *testing.T, what string, res result, defs []metricDef, nonzero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, d.name, m.Unit, d.unit)
		case nonzero && m.Value <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", what, d.name, m.Value)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == closedLoop.name && testing.Short() {
				t.Skip("calibration takes seconds")
			}
			requireMetrics(t, "untraced", measure(w, toySize, 3, time.Nanosecond, io.Discard), endToEnd, true)
			res := tracedRun(w, toySize, 3, time.Nanosecond, io.Discard)
			requireMetrics(t, "traced", res, perLayer(), false)
			if res.Metrics["trace.wall_s"].Value <= 0 {
				t.Errorf("trace.wall_s = %v", res.Metrics["trace.wall_s"].Value)
			}
		})
	}
}

func TestRunOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "corpus-clean", "--seed", "2", "--seconds", "0.01", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	if !strings.HasPrefix(lines[0], "perfbench workload=corpus-clean seed=2 workers=1 nproc=") {
		t.Errorf("first line does not record the environment: %q", lines[0])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "arena", "--trace", "2"},
		{"--workload", "arena", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// corpusPass runs one toy corpus pass.
func corpusPass(t *testing.T, chaos bool) corpusSummary {
	t.Helper()
	p, err := corpusSetup(toySize, 5, chaos)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(toySize); err != nil {
		t.Fatalf("clean pass fails its check: %v", err)
	}
	return s.(corpusSummary)
}

// rejects requires every corruption of a valid summary to be caught:
// those in byCheck by the summary's own check, those in byCompare by the
// comparison with the uncorrupted summary that repeats and traced replays
// go through.
func rejects(t *testing.T, valid summary, byCheck, byCompare map[string]func() summary) {
	t.Helper()
	for name, f := range byCheck {
		if f().check(toySize) == nil {
			t.Errorf("%s: check accepts the corrupted summary", name)
		}
	}
	for name, f := range byCompare {
		if sameSummary("corrupted", valid, f()) == nil {
			t.Errorf("%s: comparison accepts the corrupted summary", name)
		}
	}
}

func TestCorpusChecksRejectCorruption(t *testing.T) {
	clean := corpusPass(t, false)
	chaos := corpusPass(t, true)
	with := func(s corpusSummary, f func(*corpusSummary)) func() summary {
		return func() summary { f(&s); return s }
	}
	rejects(t, clean, map[string]func() summary{
		"slots":       with(clean, func(s *corpusSummary) { s.Agg.Slots++ }),
		"traces":      with(clean, func(s *corpusSummary) { s.Agg.Traces-- }),
		"off > slots": with(clean, func(s *corpusSummary) { s.Agg.OffSlots = s.Agg.Slots + 1 }),
		"paper range": with(clean, func(s *corpusSummary) { s.Agg.MeanOnFraction = 0.94 }),
	}, map[string]func() summary{
		"metrics":      with(clean, func(s *corpusSummary) { s.Agg.Metrics = chaos.Agg.Metrics }),
		"p2":           with(clean, func(s *corpusSummary) { s.P2OnFraction += 1e-9 }),
		"goodput bits": with(clean, func(s *corpusSummary) { s.Agg.GoodputSlotSum += 1e-9 }),
		"off slots":    with(clean, func(s *corpusSummary) { s.Agg.OffSlots++ }),
	})
	rejects(t, chaos, map[string]func() summary{
		"blocked > slots": with(chaos, func(s *corpusSummary) { s.Agg.BlockedSlots = s.Agg.Slots + 1 }),
	}, map[string]func() summary{
		"failovers": with(chaos, func(s *corpusSummary) { s.Agg.Failovers++ }),
	})
}

func TestArenaChecksRejectCorruption(t *testing.T) {
	p, err := arenaSetup(toySize, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p(1)
	if err != nil {
		t.Fatal(err)
	}
	valid := s.(arenaSummary)
	if err := valid.check(toySize); err != nil {
		t.Fatalf("clean pass fails its check: %v", err)
	}
	with := func(f func(*arenaSummary)) func() summary {
		return func() summary { s := valid; f(&s); return s }
	}
	rejects(t, valid, map[string]func() summary{
		"slots":       with(func(s *arenaSummary) { s.Agg.Slots -= 60000 }),
		"served":      with(func(s *arenaSummary) { s.Agg.Served-- }),
		"off > slots": with(func(s *arenaSummary) { s.Agg.OffSlots = s.Agg.Slots + 1 }),
	}, map[string]func() summary{
		"goodput":  with(func(s *arenaSummary) { s.Agg.GoodputSumGbps *= 1 + 1e-12 }),
		"outages":  with(func(s *arenaSummary) { s.Agg.Outages++ }),
		"min util": with(func(s *arenaSummary) { s.Agg.MinAvailability /= 2 }),
	})
}

func TestClosedLoopChecksRejectCorruption(t *testing.T) {
	// A hand-built summary of a 1 s run: 1001 ticks, 201 samples.
	valid := closedSummary{
		Ticks: 1001, UpTicks: 900, Reports: 80, Solves: 80, Failures: 1,
		Samples: make([]cyclops.Sample, 201),
		Windows: []netem.Window{{Gbps: 9}},
	}
	if err := valid.check(toySize); err != nil {
		t.Fatalf("valid summary fails its check: %v", err)
	}
	with := func(f func(*closedSummary)) func() summary {
		return func() summary {
			s := valid
			s.Samples = append([]cyclops.Sample(nil), valid.Samples...)
			f(&s)
			return s
		}
	}
	rejects(t, valid, map[string]func() summary{
		"ticks":      with(func(s *closedSummary) { s.Ticks = 1000 }),
		"up > ticks": with(func(s *closedSummary) { s.UpTicks = s.Ticks + 1 }),
		"no reports": with(func(s *closedSummary) { s.Reports, s.Failures = 0, 0 }),
		"samples":    with(func(s *closedSummary) { s.Samples = s.Samples[1:] }),
		"failures":   with(func(s *closedSummary) { s.Failures = s.Reports + 1 }),
	}, map[string]func() summary{
		"solves":        with(func(s *closedSummary) { s.Solves++ }),
		"up ticks":      with(func(s *closedSummary) { s.UpTicks-- }),
		"sample values": with(func(s *closedSummary) { s.Samples[7].PowerDBm = -3 }),
		"models":        with(func(s *closedSummary) { s.KTX.Theta1 += 1e-12 }),
	})
}
