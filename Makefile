GO ?= go

.PHONY: all build vet test race lint lint-smoke lint-graph-smoke verify bench bench-hotpath alloc-check metrics-smoke chaos-smoke handover-smoke arena-smoke hybrid-smoke mem-check clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 4m ./...

# Static gate: gofmt-clean, go vet-clean, and zero cyclops-vet findings
# (the repo's own interprocedural invariant linter — determinism taint,
# transitive hot-path purity, opt-in contracts, metrics hygiene, error
# discipline; see DESIGN.md §10 and §15). Any finding fails the target;
# the only way to silence one is a reasoned //cyclops: annotation at its
# line. The -json run reports its own wall time, which the recipe echoes
# so lint cost stays visible in CI logs. gofmt -l prints offending files;
# the test -n fails the target on any output.
lint:
	@fmtout="$$(gofmt -l cmd examples internal perfbench *.go 2>/dev/null)"; \
	if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	@out="$$($(GO) run ./cmd/cyclops-vet -json ./...)" || \
		{ echo "$$out"; echo "lint: cyclops-vet findings (fix each, or annotate it //cyclops:<directive> <reason> where it is intended)"; exit 1; }; \
	echo "$$out" | grep -o '"elapsed_ms": *[0-9]*' | \
		awk -F': *' '{printf "lint: cyclops-vet wall time %d ms\n", $$2}'
	@echo "lint: ok"

# Lint self-test: cyclops-vet must exit non-zero on a tree with known
# violations — proving the gate actually gates (a linter that silently
# passes everything is worse than none) — AND report the fixture's
# math/rand import: internal/xrand is the deterministic scope's one
# generator, so a rule that stops banning math/rand fails here.
lint-smoke:
	@out="$$($(GO) run ./cmd/cyclops-vet -root internal/analysis/testdata/src/determinism -module fixture 2>&1)"; \
	if [ $$? -eq 0 ]; then echo "lint-smoke: cyclops-vet passed a known-bad fixture"; exit 1; fi; \
	echo "$$out" | grep -q 'internal/sim/sim.go:4:2: determinism: import of math/rand in deterministic package internal/sim' || \
		{ echo "lint-smoke: math/rand import finding missing from output:"; echo "$$out"; exit 1; }
	@echo "lint-smoke: ok"

# Interprocedural self-test: the taint fixture hides time.Now two hops
# below the deterministic scope (internal/sim → geomx → util → time.Now);
# cyclops-vet must both fail on it AND print the full call chain — a
# graph rule that degrades into a direct-call check would pass the leaf
# package and go silent.
lint-graph-smoke:
	@out="$$($(GO) run ./cmd/cyclops-vet -root internal/analysis/testdata/src/taint -module fixture 2>&1)"; \
	if [ $$? -eq 0 ]; then echo "lint-graph-smoke: cyclops-vet passed the known-bad transitive fixture"; exit 1; fi; \
	echo "$$out" | grep -q 'internal/sim.Run → geomx.Jitter → util.Stamp → time.Now' || \
		{ echo "lint-graph-smoke: transitive chain missing from output:"; echo "$$out"; exit 1; }
	@echo "lint-graph-smoke: ok"

# Tier-1 gate: everything must build, lint clean, and pass the full test
# suite under the race detector (the parallel experiment engine fans out
# goroutines, so -race is part of the contract, not an extra). The nested
# perfbench module is built and vetted too, offline as perfbench/run.sh
# builds it: go build ./... skips it, so an export only the benchmark
# imports could otherwise be deleted without failing the gate (-o
# /dev/null keeps the binary out of perfbench/).
verify:
	$(GO) build ./...
	GOWORK=off GOPROXY=off $(GO) -C perfbench build -o /dev/null ./...
	GOWORK=off GOPROXY=off $(GO) -C perfbench vet ./...
	$(MAKE) lint
	$(MAKE) lint-smoke
	$(MAKE) lint-graph-smoke
	$(GO) test -race -timeout 4m ./...
	$(MAKE) alloc-check
	$(MAKE) metrics-smoke
	$(MAKE) chaos-smoke
	$(MAKE) handover-smoke
	$(MAKE) arena-smoke
	$(MAKE) hybrid-smoke
	$(MAKE) mem-check

# Allocation-regression gate for the compiled hot path: the zero-alloc
# contracts on Compiled.Beam, the batched kernel (BeamBatch), the G'/P
# solvers (warm and cold/coarse-seed paths), the
# radiometry reads (CaptureFraction, the exact
# LinkConfig/Plant.ReceivedPowerDBm, the certified bounds
# LinkConfig.ReceivedPowerAtMost/AtLeast and the light verdict
# LinkConfig.ReceivedPowerReaches/Plant.ReadLight), the fault cursor (Cursor.At/UntilVerdict), the slot engine's bulk
# kernels (xmath.AddN, xrand.Seed), the arena's occlusion pass, its
# bulk netem tick (Stream.TickRun with its carry kernel, and a Reset
# stream's rerun) and a warm metrics registry's drain (Registry.DrainInto)
# are
# pinned by AllocsPerRun tests, as are the slot engine's per-trace
# allocation count and the bytes of an arena cell and a corpus shard on a
# warm per-worker scratch (all flat in trace length, and a shard's nearly
# flat in its trace count); run them without -race (the race detector
# inserts allocations).
alloc-check:
	$(GO) test -run 'ZeroAllocs|AllocsFlatInTraceLength|AllocsFlatInTraceCount' -count 1 ./internal/gma/ ./internal/pointing/ ./internal/optics/ ./internal/link/ ./internal/fault/ ./internal/sim/ ./internal/arena/ ./internal/xmath/ ./internal/xrand/ ./internal/netem/ ./internal/obs/
	@echo "alloc-check: ok"

# End-to-end observability check: a real cyclops-bench run with -metrics
# must emit valid Prometheus text exposition containing the key
# instruments (pointing iterations, received power, disconnects, packets).
# The convergence + static-run pair exercises every instrumented layer in
# a few seconds.
metrics-smoke:
	$(GO) run ./cmd/cyclops-bench -experiment convergence -parallel 2 -metrics .metrics_smoke.prom
	grep -q '^cyclops_pointing_iterations_bucket{le="' .metrics_smoke.prom
	grep -q '^cyclops_pointing_beam_evals_total ' .metrics_smoke.prom
	grep -q '^cyclops_link_received_power_dbm_bucket{le="' .metrics_smoke.prom
	grep -q '^cyclops_link_disconnects_total ' .metrics_smoke.prom
	grep -q '^cyclops_netem_packets_total ' .metrics_smoke.prom
	grep -q '^cyclops_run_ticks_total ' .metrics_smoke.prom
	grep -q '^# TYPE cyclops_run_repoint_latency_seconds histogram$$' .metrics_smoke.prom
	rm -f .metrics_smoke.prom
	@echo "metrics-smoke: ok"

# End-to-end fault-injection check: a chaotic handheld run with a pinned
# fault seed must survive (no abort), record at least one outage that is
# matched by a reacquisition, and expose the supervisor time-in-state
# gauges. Seed 5 over 12 s deterministically produces two full
# down→recover cycles.
chaos-smoke:
	$(GO) run ./cmd/cyclops-sim -oracle -motion handheld -duration 12s -chaos -chaos-seed 5 -metrics .chaos_smoke.prom
	grep -q '^cyclops_outage_total [1-9]' .chaos_smoke.prom
	grep -q '^cyclops_reacquire_seconds_count [1-9]' .chaos_smoke.prom
	grep -q '^cyclops_supervisor_tracking_seconds ' .chaos_smoke.prom
	grep -q '^cyclops_supervisor_degraded_seconds ' .chaos_smoke.prom
	rm -f .chaos_smoke.prom
	@echo "chaos-smoke: ok"

# End-to-end handover check: the chaos-smoke scenario re-run with a second
# ceiling TX must be strictly better than its single-TX twin — the same
# fault seed that chaos-smoke pins to at least one outage produces zero
# here, with every blocking episode rescued by a make-before-break switch
# (≥1 handover recorded, dark-time histogram populated, HANDOVER
# supervisor state exposed). Then the §3 extension render: the two-TX
# line must keep the link up the whole session through a nonzero number
# of handovers.
handover-smoke:
	$(GO) run ./cmd/cyclops-sim -oracle -motion handheld -duration 12s -chaos -chaos-seed 5 -tx 2 -metrics .handover_smoke.prom
	grep -q '^cyclops_handover_total [1-9]' .handover_smoke.prom
	grep -q '^cyclops_outage_total 0$$' .handover_smoke.prom
	grep -q '^cyclops_handover_seconds_count [1-9]' .handover_smoke.prom
	grep -q '^cyclops_supervisor_handover_seconds ' .handover_smoke.prom
	$(GO) run ./cmd/cyclops-bench -experiment extensions > .handover_smoke.out
	grep -Eq '^  two TXs: .*link up 100\.0%, [1-9][0-9]* handovers$$' .handover_smoke.out
	rm -f .handover_smoke.prom .handover_smoke.out
	@echo "handover-smoke: ok"

# End-to-end arena check: a packed 4×4 m venue (32 users at 2/m², four
# ceiling TXs serving 4 headsets each) must fire body occlusions that the
# adjacent-TX pool rescues — nonzero make-before-break handovers — and
# print the pinned capacity-planning line. The seeded run is bit-stable,
# so the asserted counts are exact, not thresholds.
arena-smoke:
	$(GO) run ./cmd/cyclops-sim -experiment fig16-arena -users 32 -density 2 -seed 1 -metrics .arena_smoke.prom > .arena_smoke.out
	grep -q '^  capacity: 4 users/TX holds 99% avail up to 2.00 users/m²' .arena_smoke.out
	grep -q '^cyclops_handover_total [1-9]' .arena_smoke.prom
	grep -q '^cyclops_arena_users_total 32$$' .arena_smoke.prom
	grep -q '^cyclops_arena_unserved_users_total 16$$' .arena_smoke.prom
	grep -q '^cyclops_arena_cells_total 4$$' .arena_smoke.prom
	grep -q '^cyclops_arena_user_goodput_gbps_count 16$$' .arena_smoke.prom
	rm -f .arena_smoke.prom .arena_smoke.out
	@echo "arena-smoke: ok"

# End-to-end hybrid-policy check: the same seeded haze fade (a 30 dB-class
# fog ramp, seed 3 over 30 s) run twice. FSO-only it costs a full outage —
# the optical budget dies for the plateau plus the 3 s re-lock. With
# -hybrid the policy must fail the stream over to the mmWave secondary
# (fog is transparent at 60 GHz), re-admit the primary after re-lock plus
# the clear window, and never flap — the pinned counters are exactly one
# failover and one re-admission, with zero delivered availability loss
# beyond the switch windows (the summary's "delivered 99.8% up").
hybrid-smoke:
	$(GO) run ./cmd/cyclops-sim -oracle -motion static -duration 30s -haze -chaos-seed 3 -metrics .hybrid_smoke_fso.prom
	grep -q '^cyclops_outage_total [1-9]' .hybrid_smoke_fso.prom
	$(GO) run ./cmd/cyclops-sim -oracle -motion static -duration 30s -haze -chaos-seed 3 -hybrid -metrics .hybrid_smoke.prom > .hybrid_smoke.out
	grep -q '^cyclops_policy_failover_total 1$$' .hybrid_smoke.prom
	grep -q '^cyclops_policy_readmit_total 1$$' .hybrid_smoke.prom
	grep -q '^cyclops_mmwave_goodput_gbps_count [1-9]' .hybrid_smoke.prom
	grep -q 'delivered 99\.[0-9]% up' .hybrid_smoke.out
	rm -f .hybrid_smoke_fso.prom .hybrid_smoke.prom .hybrid_smoke.out
	@echo "hybrid-smoke: ok"

# Memory-boundedness gate for the streamed engines: a 10× larger corpus
# must finish within a fixed live-heap envelope of the small one (the
# engine holds O(workers·shard) traces, never the corpus), and
# parallel.Fold — under both sim.RunCorpus and arena.Run — never holds
# more than one batch of shard outputs. Run without -race so HeapAlloc
# measures the engine, not the detector.
mem-check:
	$(GO) test -run 'TestRunCorpusMemoryBounded' -count 1 ./internal/sim/
	$(GO) test -run '^TestFold$$' -count 1 ./internal/parallel/
	@echo "mem-check: ok"

# Serial vs parallel wall time for the Fig 16 500-trace corpus, recorded
# into BENCH_parallel.json. The two benchmarks produce bit-identical
# Fig16Result output; the speedup scales with available cores. With fewer
# than two cores (the -GOMAXPROCS suffix of the benchmark name) the ratio
# is ~1 by construction and measures nothing, so speedup records "n/a".
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkFig16TraceAvailability(Serial|Parallel)$$' -benchtime 3x . | tee .bench_parallel.txt
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	    -v commit="$$(git describe --always --dirty 2>/dev/null || echo unknown)" ' \
	/^BenchmarkFig16TraceAvailabilitySerial/ { \
		serial = $$3; \
		n = split($$1, a, "-"); cores = (n > 1 ? a[n] : 1); \
	} \
	/^BenchmarkFig16TraceAvailabilityParallel/ { par = $$3 } \
	END { \
		if (serial == 0 || par == 0) { print "bench: missing benchmark output" > "/dev/stderr"; exit 1 } \
		speedup = (cores < 2 ? "\"n/a\"" : sprintf("%.2f", serial / par)); \
		printf "{\n  \"benchmark\": \"Fig16TraceAvailability\",\n  \"recorded_at\": \"%s\",\n  \"commit\": \"%s\",\n  \"cores\": %d,\n  \"serial_ns_per_op\": %.0f,\n  \"parallel_ns_per_op\": %.0f,\n  \"speedup\": %s\n}\n", \
			ts, commit, cores, serial, par, speedup; \
	}' .bench_parallel.txt > BENCH_parallel.json
	rm -f .bench_parallel.txt
	cat BENCH_parallel.json

# Hot-path benchmark suite: micro-benchmarks for the compiled GMA model,
# the warm G'/P solves, the radiometry kernel (CaptureFraction and one
# LinkConfig.ReceivedPowerDBm read) and the slot engine's bulk kernels
# (xmath.AddN over one 60 s trace of 1 ms adds, one xrand.Seed), the
# arena's occlusion pass over one densest-venue cell's eight served users
# (arena_occlusion_ns_per_op), plus the
# serial Fig 16 corpus on the clean slot model (corpus_ns_per_op), on
# the armed engine (every fault kind, haze fades and the hybrid policy:
# chaos_corpus_ns_per_op), the densest fig16-arena cell at workers=1
# (arena_ns_per_op) and one full 10G calibration at seed 1
# (calibrate_ns_per_op), recorded into BENCH_hotpath.json. Every benchmark
# runs with -benchmem: the three corpus benchmarks also record their
# bytes per op (corpus_bytes_per_op, chaos_corpus_bytes_per_op,
# arena_bytes_per_op, the field before "B/op"), and the micro-benchmarks'
# and the calibration's allocs_per_op is parsed from the field before
# "allocs/op" (the batch kernel reports its worst batch size, the
# calibration its median). A missing row fails the target.
# Benchmark names are matched with the -GOMAXPROCS suffix stripped. The
# seven corpus and calibration rows are the median of 3 runs at
# -benchtime 5x with their min and max: co-tenant noise on a shared host
# is strictly additive, so short exposures track the code's true cost
# more faithfully than long ones, and the spread says how far to trust
# the median. There is no typed-in baseline: compare two recordings made
# on one host (`git stash` or a second checkout for the other side).
bench-hotpath:
	$(GO) test -run '^$$' -bench '^Benchmark(Fig16(TraceAvailability|ChaosCorpus|Arena)Serial|Calibrate)$$' -benchtime 5x -count 3 -benchmem . | tee .bench_hotpath.txt
	$(GO) test -run '^$$' -bench . -benchtime 1s -benchmem ./internal/gma/ ./internal/pointing/ ./internal/optics/ | tee -a .bench_hotpath.txt
	$(GO) test -run '^$$' -bench '^Benchmark(AddN|Seed)$$' -benchtime 1s -benchmem ./internal/xmath/ ./internal/xrand/ | tee -a .bench_hotpath.txt
	$(GO) test -run '^$$' -bench '^BenchmarkArenaOcclusion$$' -benchtime 1s -benchmem ./internal/arena/ | tee -a .bench_hotpath.txt
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	    -v commit="$$(git describe --always --dirty 2>/dev/null || echo unknown)" ' \
	function allocs(   i) { for (i = 4; i < NF; i++) if ($$(i+1) == "allocs/op") return $$i; return "" } \
	function bytes(   i) { for (i = 4; i < NF; i++) if ($$(i+1) == "B/op") return $$i; return "" } \
	function median(v, n,   i, j, t) { \
		for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t } \
		return (n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2) \
	} \
	function spread(v, n,   m) { \
		m = median(v, n); \
		return sprintf("{ \"median\": %.0f, \"min\": %.0f, \"max\": %.0f }", m, v[1], v[n]) \
	} \
	{ name = ($$1 ~ /^Benchmark/ ? $$1 : ""); sub(/-[0-9]+$$/, "", name) } \
	name == "BenchmarkFig16TraceAvailabilitySerial" { cv[++cn] = $$3; if ((v = bytes()) != "") cb[++cbn] = v + 0 } \
	name == "BenchmarkFig16ChaosCorpusSerial"       { xv[++xn] = $$3; if ((v = bytes()) != "") xb[++xbn] = v + 0 } \
	name == "BenchmarkFig16ArenaSerial"             { av[++an] = $$3; if ((v = bytes()) != "") ab[++abn] = v + 0 } \
	name == "BenchmarkCalibrate"                    { kv[++kn] = $$3; if ((v = allocs()) != "") ka[++kan] = v + 0 } \
	name == "BenchmarkParamsBeam"           { pbeam = $$3 } \
	name == "BenchmarkCompiledBeam"         { cbeam = $$3; a["gma_compiled_beam"] = allocs() } \
	name == "BenchmarkCompile"              { comp = $$3 } \
	name == "BenchmarkBeamBatch1"           { bb1 = $$3 } \
	name == "BenchmarkBeamBatch8"           { bb8 = $$3 } \
	name == "BenchmarkBeamBatch64"          { bb64 = $$3 } \
	name ~ /^BenchmarkBeamBatch[0-9]+$$/    { v = allocs(); if (!("gma_beam_batch" in a) || v + 0 > a["gma_beam_batch"] + 0) a["gma_beam_batch"] = v } \
	name == "BenchmarkGPrimeWarm"           { gw = $$3; a["pointing_gprime_compiled"] = allocs() } \
	name == "BenchmarkGPrimeWarmUncompiled" { gwu = $$3 } \
	name == "BenchmarkPointWarm"            { pw = $$3; a["pointing_point_compiled"] = allocs() } \
	name == "BenchmarkPointColdStart"       { pc = $$3 } \
	name == "BenchmarkCaptureFraction"      { cf = $$3; a["optics_capture_fraction"] = allocs() } \
	name == "BenchmarkLinkReceivedPowerDBm" { rp = $$3; a["optics_link_received_power"] = allocs() } \
	name == "BenchmarkAddN"                 { addn = $$3; a["xmath_add_n"] = allocs() } \
	name == "BenchmarkSeed"                 { seed = $$3; a["xrand_seed"] = allocs() } \
	name == "BenchmarkArenaOcclusion"       { aocc = $$3; a["arena_occlusion"] = allocs() } \
	END { \
		if (cn == 0 || xn == 0 || an == 0) { print "bench-hotpath: missing corpus benchmark output" > "/dev/stderr"; exit 1 } \
		if (cbn != cn || xbn != xn || abn != an) { print "bench-hotpath: missing -benchmem B/op for a corpus benchmark run" > "/dev/stderr"; exit 1 } \
		if (kn == 0) { print "bench-hotpath: missing BenchmarkCalibrate output" > "/dev/stderr"; exit 1 } \
		if (kan != kn) { print "bench-hotpath: missing -benchmem allocs/op for a BenchmarkCalibrate run" > "/dev/stderr"; exit 1 } \
		split("gma_compiled_beam gma_beam_batch pointing_gprime_compiled pointing_point_compiled optics_capture_fraction optics_link_received_power xmath_add_n xrand_seed arena_occlusion", keys, " "); \
		for (k = 1; k in keys; k++) if (a[keys[k]] == "") { print "bench-hotpath: no -benchmem allocs for " keys[k] > "/dev/stderr"; exit 1 } \
		if (pbeam == "" || cbeam == "" || comp == "" || bb1 == "" || bb8 == "" || bb64 == "" || gw == "" || gwu == "" || pw == "" || pc == "" || cf == "" || rp == "" || addn == "" || seed == "" || aocc == "") { \
			print "bench-hotpath: missing micro-benchmark output" > "/dev/stderr"; exit 1 } \
		printf "{\n  \"benchmark\": \"hotpath\",\n  \"recorded_at\": \"%s\",\n  \"commit\": \"%s\",\n  \"note\": \"corpus and calibrate rows: median of %d serial runs at -benchtime 5x with min/max; no typed-in baseline, compare recordings made on one host\",\n  \"corpus_ns_per_op\": %s,\n  \"chaos_corpus_ns_per_op\": %s,\n  \"arena_ns_per_op\": %s,\n  \"corpus_bytes_per_op\": %s,\n  \"chaos_corpus_bytes_per_op\": %s,\n  \"arena_bytes_per_op\": %s,\n  \"calibrate_ns_per_op\": %s,\n  \"micro\": {\n    \"gma_params_beam_ns_per_op\": %s,\n    \"gma_compiled_beam_ns_per_op\": %s,\n    \"gma_compile_ns_per_op\": %s,\n    \"gma_beam_batch1_ns_per_op\": %s,\n    \"gma_beam_batch8_ns_per_op\": %s,\n    \"gma_beam_batch64_ns_per_op\": %s,\n    \"pointing_gprime_warm_ns_per_op\": %s,\n    \"pointing_gprime_warm_uncompiled_ns_per_op\": %s,\n    \"pointing_point_warm_ns_per_op\": %s,\n    \"pointing_point_cold_ns_per_op\": %s,\n    \"optics_capture_fraction_ns_per_op\": %s,\n    \"optics_link_received_power_ns_per_op\": %s,\n    \"xmath_add_n_ns_per_op\": %s,\n    \"xrand_seed_ns_per_op\": %s,\n    \"arena_occlusion_ns_per_op\": %s\n  },\n  \"allocs_per_op\": {\n    \"gma_compiled_beam\": %s,\n    \"gma_beam_batch\": %s,\n    \"pointing_gprime_compiled\": %s,\n    \"pointing_point_compiled\": %s,\n    \"optics_capture_fraction\": %s,\n    \"optics_link_received_power\": %s,\n    \"xmath_add_n\": %s,\n    \"xrand_seed\": %s,\n    \"arena_occlusion\": %s,\n    \"calibrate\": %.0f\n  }\n}\n", \
			ts, commit, cn, spread(cv, cn), spread(xv, xn), spread(av, an), spread(cb, cbn), spread(xb, xbn), spread(ab, abn), spread(kv, kn), pbeam, cbeam, comp, bb1, bb8, bb64, gw, gwu, pw, pc, cf, rp, addn, seed, aocc, \
			a["gma_compiled_beam"], a["gma_beam_batch"], a["pointing_gprime_compiled"], a["pointing_point_compiled"], a["optics_capture_fraction"], a["optics_link_received_power"], a["xmath_add_n"], a["xrand_seed"], a["arena_occlusion"], median(ka, kan); \
	}' .bench_hotpath.txt > BENCH_hotpath.json
	rm -f .bench_hotpath.txt
	cat BENCH_hotpath.json

clean:
	rm -f BENCH_parallel.json BENCH_hotpath.json .bench_parallel.txt .bench_hotpath.txt .metrics_smoke.prom .chaos_smoke.prom .handover_smoke.prom .handover_smoke.out .arena_smoke.prom .arena_smoke.out .hybrid_smoke_fso.prom .hybrid_smoke.prom .hybrid_smoke.out
	$(GO) clean ./...
