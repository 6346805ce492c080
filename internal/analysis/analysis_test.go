package analysis

import (
	"path/filepath"
	"reflect"
	"testing"
)

func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := LoadTree(filepath.Join("testdata", "src", name), "fixture")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return mod
}

func findingStrings(rep Report) []string {
	var out []string
	for _, f := range rep.Findings {
		out = append(out, f.String())
	}
	return out
}

// TestFixtures runs the full rule table over each fixture tree and pins
// the findings (golden, one line per finding) and the suppressed count.
// Each fixture exercises one rule's bad cases, good cases, and annotation
// edge cases; the subtests run in parallel to exercise the shared stdlib
// importer under -race.
func TestFixtures(t *testing.T) {
	cases := []struct {
		fixture    string
		want       []string
		suppressed int
	}{
		{
			fixture: "determinism",
			want: []string{
				"internal/sim/sim.go:10:6: unused: exported func sim.Bad is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:11:16: determinism: time.Now in deterministic package internal/sim: derive timestamps from the simulation clock or the seed",
				"internal/sim/sim.go:12:13: determinism: os.Getenv in deterministic package internal/sim: plumb configuration through options structs",
				"internal/sim/sim.go:13:10: determinism: global math/rand.Float64 in deterministic package internal/sim: use rand.New(rand.NewSource(seed))",
				"internal/sim/sim.go:16:14: determinism: time.Since in deterministic package internal/sim: derive durations from the simulation clock",
				"internal/sim/sim.go:20:6: unused: exported func sim.Good is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:26:6: unused: exported func sim.Tolerated is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			},
			suppressed: 1, // the //cyclops:deterministic-ok time.Now in Tolerated
		},
		{
			fixture: "maporder",
			want: []string{
				"internal/core/core.go:4:6: unused: exported func core.Flagged is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/core.go:6:2: map-order: range over map m in deterministic package internal/core: extract sorted keys, or annotate //cyclops:deterministic-ok <reason>",
				"internal/core/core.go:13:6: unused: exported func core.Suppressed is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/core.go:23:6: unused: exported func core.Slices is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/core.go:35:6: unused: exported func core.FlaggedNamed is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/core.go:37:2: map-order: range over map b in deterministic package internal/core: extract sorted keys, or annotate //cyclops:deterministic-ok <reason>",
			},
			suppressed: 1, // the annotated range in Suppressed
		},
		{
			fixture: "hotpath",
			want: []string{
				"hp/hp.go:11:7: hotpath: hot path (*thing).Bad allocates with make: hoist the allocation out of the hot path",
				"hp/hp.go:13:11: hotpath: hot path (*thing).Bad: append result does not feed back into its slice (escapes/allocates); use the x = append(x, ...) form on a preallocated slice",
				"hp/hp.go:15:9: hotpath: hot path (*thing).Bad calls fmt.Errorf (allocates): precompute messages or use prebuilt errors",
				"hp/hp.go:22:9: hotpath: hot path Box returns v as interface interface{} (allocates): return a concrete type or a prebuilt value",
				"hp/hp.go:29:7: hotpath: hot path Convert converts to interface type interface{} (allocates)",
				"hp/hp.go:31:7: hotpath: hot path Convert passes v as interface interface{} (allocates)",
			},
			suppressed: 1, // the //cyclops:alloc-ok make in Allowed
		},
		{
			fixture: "metrics",
			want: []string{
				"a/a.go:8:10: metrics: metric name passed to Registry.Gauge must be a string literal, got dynamic",
				`a/a.go:9:12: metrics: metric name "BadName" must be cyclops_-prefixed snake_case (^cyclops_[a-z][a-z0-9]*(_[a-z0-9]+)*$)`,
				`a/a.go:10:12: metrics: metric "cyclops_good_total" already registered at a/a.go:7: one call site per name module-wide (or annotate //cyclops:metric-ok <reason>)`,
				`a/a.go:11:14: metrics: metric "cyclops_good_total" already registered as a different kind (Histogram vs Counter) at a/a.go:7: one call site per name module-wide (or annotate //cyclops:metric-ok <reason>)`,
			},
			suppressed: 1, // b/b.go's annotated duplicate of cyclops_shared_total
		},
		{
			fixture: "errors",
			want: []string{
				"internal/x/x.go:10:6: unused: exported func x.Discard is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/x/x.go:11:2: error-discipline: error discarded with _ in internal/x: handle it, return it, or annotate //cyclops:discard-ok <reason>",
				"internal/x/x.go:12:5: error-discipline: error discarded with _ in internal/x: handle it, return it, or annotate //cyclops:discard-ok <reason>",
				"internal/x/x.go:19:6: unused: exported func x.Boom is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/x/x.go:20:2: error-discipline: panic in internal/x: return an error, or annotate //cyclops:panic-ok <reason>",
				"internal/x/x.go:24:6: unused: exported func x.Checked is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			},
			suppressed: 2, // the discard-ok discard and the panic-ok panic in Checked
		},
		{
			fixture: "taint",
			want: []string{
				"geomx/geomx.go:9:1: determinism-taint: geomx.Jitter is reachable from the deterministic scope and reaches time.Now: internal/sim.Run → geomx.Jitter → util.Stamp → time.Now — derive timestamps from the simulation clock or the seed",
				"geomx/geomx.go:14:1: determinism-taint: geomx.Sorted is reachable from the deterministic scope and reaches range over map m: internal/sim.UsesSorted → geomx.Sorted → range over map m — extract sorted keys",
				"geomx/geomx.go:24:1: determinism-taint: geomx.MakeFn is reachable from the deterministic scope and reaches time.Now: internal/sim.UsesFn → geomx.MakeFn → util.Stamp → time.Now — derive timestamps from the simulation clock or the seed",
				"internal/sim/sim.go:12:6: unused: exported func sim.Run is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:17:6: unused: exported func sim.UsesSorted is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:23:6: unused: exported func sim.UsesFn is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:28:6: unused: exported func sim.Calm is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"util/util.go:7:1: determinism-taint: util.Stamp is reachable from the deterministic scope and reaches time.Now: internal/sim.Run → geomx.Jitter → util.Stamp → time.Now — derive timestamps from the simulation clock or the seed",
			},
			suppressed: 0,
		},
		{
			fixture: "hotpath2",
			want: []string{
				"hp/hp.go:14:2: hotpath: hot path Root: interface call (Writer).Write (unknown callee): every hot-path call must resolve statically so the whole tree is checkable; annotate //cyclops:alloc-ok <reason> to cut",
				"hp/hp.go:15:2: hotpath: hot path Root: call through func value f (unknown callee): every hot-path call must resolve statically so the whole tree is checkable; annotate //cyclops:alloc-ok <reason> to cut",
				"hp/hp.go:23:7: hotpath: hot path Root → helperAlloc allocates with make: hoist the allocation out of the hot path",
				"hp/hp.go:33:13: hotpath: hot path Root → deepCaller → deep calls fmt.Sprintf (allocates): precompute messages or use prebuilt errors",
			},
			suppressed: 1, // the alloc-ok call-site cut in Root
		},
		{
			fixture: "contract",
			want: []string{
				"consumer/consumer.go:13:2: opt-in-contract: switch on enum State has a default that silently swallows Busy, Done: handle every state or make the default panic",
				"consumer/consumer.go:20:2: opt-in-contract: switch on enum State does not handle Done and has no default: a newly appended state would fall through silently",
				"internal/core/opts.go:6:6: unused: exported type core.GateOptions is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:9:6: unused: exported type core.TuneOptions is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:12:6: unused: exported type core.PlainOptions is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:15:6: unused: exported type core.RunOptions is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:17:2: opt-in-contract: opt-in arm Gate on RunOptions has value type GateOptions: feature arms must be *GateOptions so nil means off and byte-identical to baseline",
				"internal/core/opts.go:23:2: opt-in-contract: opt-in arm Plain (*PlainOptions) on RunOptions must document its nil default in the field doc comment",
				"internal/core/opts.go:41:6: unused: exported type core.Mode is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:44:2: unused: exported const core.Fast is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:45:2: unused: exported const core.Slow is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:49:1: opt-in-contract: enum Mode: members declared outside its original const block; keep the enum a single append-only iota chain",
				"internal/core/opts.go:49:7: unused: exported const core.Broken is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:52:6: unused: exported type core.Weird is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:55:2: opt-in-contract: enum Weird: first member W1 must be declared `= iota` to anchor the append-only chain",
				"internal/core/opts.go:55:2: unused: exported const core.W1 is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/core/opts.go:56:2: opt-in-contract: enum Weird: member W2 has an explicit value; append new members to the end of the iota chain instead",
				"internal/core/opts.go:56:2: unused: exported const core.W2 is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			},
			suppressed: 2, // the contract-ok'd Tuned field and Annotated switch
		},
		{
			fixture: "fma",
			want: []string{
				"helper/helper.go:7:1: float-determinism: helper.Fuse is reachable from the deterministic scope and reaches math.FMA: internal/sim.Via → helper.Fuse → math.FMA — write the unfused x*y + z (one rounding per op, identical on every platform)",
				"internal/sim/sim.go:12:6: unused: exported func sim.Mix is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/sim/sim.go:13:14: float-determinism: math.FMA in deterministic package internal/sim: write the unfused x*y + z (one rounding per op, identical on every platform)",
				"internal/sim/sim.go:18:6: unused: exported func sim.Via is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			},
			suppressed: 0,
		},
		{
			fixture: "annotation",
			want: []string{
				"internal/a/a.go:5:1: annotation: unknown //cyclops: directive bogus",
				"internal/a/a.go:6:6: unused: exported func a.A is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/a/a.go:7:2: annotation: //cyclops:panic-ok requires a reason",
				"internal/a/a.go:8:2: error-discipline: panic in internal/a: return an error, or annotate //cyclops:panic-ok <reason>",
				"internal/a/a.go:12:6: unused: exported func a.B is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/a/a.go:13:2: annotation: malformed annotation // cyclops:panic-ok spaced-out marker (write //cyclops:panic-ok with no space after //)",
				"internal/a/a.go:14:2: error-discipline: panic in internal/a: return an error, or annotate //cyclops:panic-ok <reason>",
			},
			suppressed: 0, // reasonless and spaced-out suppressors suppress nothing
		},
		{
			// Dead exports, a dead chain, a self-recursive export, an
			// export only a test or a nested module calls, a reasonless
			// keep, a dead method on a live type and a dead type (its
			// methods fold into the type's finding); Chained, the kept
			// Kept and its callee, Celsius.String (fmt.Stringer) and
			// Square.Area (called through Shape) stay quiet.
			fixture: "unused",
			want: []string{
				"internal/lib/lib.go:16:6: unused: exported func lib.Dead is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:19:6: unused: exported func lib.DeadCallee is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:22:6: unused: exported func lib.TestOnly is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:25:6: unused: exported func lib.Recursive is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:33:6: unused: exported func lib.NestedOnly is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:35:1: annotation: //cyclops:keep requires a reason",
				"internal/lib/lib.go:36:6: unused: exported func lib.Reasonless is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:50:18: unused: exported method lib.(Celsius).Kelvin is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
				"internal/lib/lib.go:53:6: unused: exported type lib.Ghost is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			},
			suppressed: 1, // the //cyclops:keep with a reason on Kept
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			rep := Run(loadFixture(t, tc.fixture), Rules())
			got := findingStrings(rep)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("findings mismatch\ngot:\n  %s\nwant:\n  %s",
					join(got), join(tc.want))
			}
			if rep.Suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", rep.Suppressed, tc.suppressed)
			}
		})
	}
}

func join(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// TestReportDeterministic loads the same fixture twice and demands
// byte-identical reports — the analyzer's own output is held to the
// repo's determinism bar.
func TestReportDeterministic(t *testing.T) {
	a := Run(loadFixture(t, "metrics"), Rules())
	b := Run(loadFixture(t, "metrics"), Rules())
	if !reflect.DeepEqual(findingStrings(a), findingStrings(b)) {
		t.Errorf("two runs over one fixture disagreed:\n%s\nvs\n%s",
			join(findingStrings(a)), join(findingStrings(b)))
	}
}

// TestRulesTable pins the catalog's shape: stable unique names, docs, and
// a suppression directive everywhere one is promised.
func TestRulesTable(t *testing.T) {
	wantNames := []string{
		"determinism", "determinism-taint", "float-determinism", "map-order",
		"hotpath", "metrics", "error-discipline", "opt-in-contract", "unused",
	}
	rules := Rules()
	if len(rules) != len(wantNames) {
		t.Fatalf("rule count = %d, want %d", len(rules), len(wantNames))
	}
	seen := map[string]bool{}
	for i, r := range rules {
		if r.Name != wantNames[i] {
			t.Errorf("rule %d = %q, want %q", i, r.Name, wantNames[i])
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Doc == "" {
			t.Errorf("rule %q has no doc", r.Name)
		}
		if r.Check == nil {
			t.Errorf("rule %q has no check", r.Name)
		}
	}
}

// TestLoadTreeMissingDir pins the load-error path the cyclops-vet command
// turns into exit status 2.
func TestLoadTreeMissingDir(t *testing.T) {
	if _, err := LoadTree(filepath.Join("testdata", "src", "no-such-fixture"), "fixture"); err == nil {
		t.Fatal("loading a missing tree succeeded")
	}
}
