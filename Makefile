# TD-NUCA reproduction — build / test / CI entry points.
#
#   make ci          everything a PR must pass: build, vet, lint, tests,
#                    race, one-iteration benchmark smoke and the bench/
#                    module's smoke test (the smokes below are subsets of
#                    these, kept as standalone targets)
#   make lint        gofmt check + go vet + tdnuca-lint, the repo's own
#                    static-analysis suite (determinism / hot-path
#                    allocation / units; DESIGN.md §9)
#   make lint-timing lint under a wall-clock budget: the analyzer must
#                    stay fast enough to run on every PR
#   make race        race detector over the concurrent harness and the
#                    packages its worker pool drives (minus the harness
#                    tests that only widen a raced pattern; RACE_SKIP)
#   make bench-quick one iteration of every benchmark (compile + smoke)
#   make bench-smoke the end-to-end benchmark module's own tests (bench/,
#                    the harness bench/run.sh builds), run with that
#                    script's hermetic Go environment
#   make bench-ab    REF=<commit> WORKLOAD=<w> PAIRS=10: the working tree
#                    against REF on bench/run.sh in alternating pairs,
#                    with medians, IQRs, wins, a confidence band on the
#                    paired ratio and a verdict per metric (about 70 s
#                    per pair; not part of ci)
#   make trace-smoke one traced run through the CLI: writes
#                    and validates the Chrome trace + interval series and
#                    checks the cycle stack sums to cores x makespan
#   make faults-smoke degraded (fault-injected) suite checked against its
#                    golden digests, plus worker-count independence
#   make gen-smoke   generated-workload differential suite (pinned golden
#                    digests, cross-policy access-set equality) plus one
#                    CLI run of a generated workload under every policy on
#                    the 4x4 and 8x8 meshes
#   make serve-smoke the experiment service's raced package tests:
#                    byte-identical cache hits, concurrent duplicate
#                    submissions coalescing to one simulation, drain and
#                    SIGTERM, served digests equal to direct runs under
#                    concurrent clients, and corrupt cache entries never
#                    served (DESIGN.md §14, §15)
#   make fuzz-smoke  short fuzzes of the workload-generator name parser
#                    and validator, of the -faults scenario parser, of
#                    the service's job-spec boundary, of its disk-cache
#                    header parser, of the client's ndjson stream
#                    consumer and of the TLB against a reference LRU
#                    model (seed corpora always run under test)
#   make golden      refresh the golden suite digests (healthy, degraded
#                    and generated) after an intentional behavioral change

GO ?= go

.PHONY: build test race vet fmt-check lint lint-timing bench-quick bench-smoke bench-ab trace-smoke faults-smoke gen-smoke serve-smoke fuzz-smoke golden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel suite runner fans independent machines/runtimes out across
# goroutines (one machine per run, never shared); the race detector over
# these packages is the proof that no unsynchronized shared state sneaks
# back in (e.g. the old package-level WatchBlock). The harness tests
# include the degraded (fault-injected) parallel suite, so mid-run
# reconfiguration is raced too. RACE_SKIP names harness tests that only
# repeat a raced pool pattern over more workloads; test runs them
# plainly, and the worker-equivalence tests (healthy, degraded,
# generated), the pool and cancellation tests and the figure batch test
# (TestRunFiguresSharesRuns) race the same concurrent paths.
RACE_SKIP = ^(TestGoldenSuiteDigests|TestSameSeedDeterminism|TestDegradedGoldenDigests|TestGeneratedGoldenDigests|TestSuiteAndMainFigures|TestTableII|TestRRTLatencySweepMonotone|TestAblationTable|TestClusterSweep|TestResilienceSweep)$$
race:
	$(GO) test -race -timeout 3600s -skip '$(RACE_SKIP)' ./internal/harness ./internal/machine ./internal/taskrt ./internal/serve ./internal/client

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-formatted, listing the offenders.
# Hidden directories are skipped: .bench_build/ holds bench-ab's checkout
# of the reference commit, which is not this tree's to format.
fmt-check:
	@out="$$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repo's own analyzer: determinism, hot-path allocation and
# config/units invariants (DESIGN.md §9). Exits non-zero on findings; add
# -json for the machine-readable report (schema in EXPERIMENTS.md).
lint: fmt-check vet
	$(GO) run ./cmd/tdnuca-lint

# The same analyzer under a generous wall-clock budget: the whole suite
# (load + type-check + three passes over the module) must stay cheap
# enough to run on every PR. 60s is ~30x the current cost on a loaded
# CI worker; tripping it means a pass went superlinear.
lint-timing:
	$(GO) run ./cmd/tdnuca-lint -budget 60s

# One iteration of every benchmark: proves they still compile and run,
# cheap enough for CI.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# The benchmark module (bench/, a separate module that drives the
# simulator through its exported and internal APIs): its tests run every
# workload once at a small size, proving a change to machine, taskrt or
# serve has not broken the benchmark build or its checks. The
# environment is bench/run.sh's: no workspace, no proxy, local toolchain.
bench-smoke:
	cd bench && GOWORK=off GOPROXY=off GOFLAGS= GOTOOLCHAIN=local $(GO) test ./...

# A/B comparison on the end-to-end benchmark (bench/README.md, "Comparing
# two commits"): REF is checked out in a git worktree under .bench_build/
# and run alternately with the working tree, one seed per pair. Too slow
# for ci: a pair is two --seconds 30 invocations.
REF ?= HEAD
WORKLOAD ?= paper-suite
PAIRS ?= 10
bench-ab:
	$(GO) run ./cmd/tdnuca-benchab -ref $(REF) -workload $(WORKLOAD) -pairs $(PAIRS)

# End-to-end proof of the observability layer: the CLI validates the
# written Chrome JSON (parse + slice count) and the cycle-stack sum
# itself, exiting non-zero on any mismatch (DESIGN.md §10). The CLI's
# TestBenchTrace runs the same command under make test.
trace-smoke:
	$(GO) run ./cmd/tdnuca-experiments -bench LU -trace /tmp/tdnuca-trace-smoke.json \
		-interval 5000 -factor 0.0078125

# Digest-checked degraded run: the fault-injected suite must reproduce
# its golden digests bit-for-bit, stay coherent (zero violations), and be
# independent of the worker count (DESIGN.md §11).
faults-smoke:
	$(GO) test ./internal/harness -run 'TestDegradedGoldenDigests|TestDegradedRunsStayCoherent|TestDegradedWorkerEquivalence'

# The generated-workload differential layer: pinned workgen seeds must
# reproduce their golden digests with identical access sets across
# policies and worker counts, then one CLI run exercises the 4x4 and the
# generalized 8x8 mesh end to end (DESIGN.md §12). The CLI's
# TestBenchGenerated* tests cover the same runs under make test.
gen-smoke:
	$(GO) test ./internal/harness -run 'TestGenerated'
	$(GO) run ./cmd/tdnuca-experiments -bench gen:seed=3,depth=4,width=8 -check -factor 0.0078125
	$(GO) run ./cmd/tdnuca-experiments -bench gen:seed=3,depth=4,width=8 -mesh 8x8 -check -factor 0.0078125

# The experiment-service layer (DESIGN.md §14, §15): raced package tests
# for byte-identical cache hits, coalescing of concurrent duplicate
# submissions, the drain / SIGTERM paths, four concurrent clients whose
# served digests must equal direct harness runs (exactly-once
# simulation, byte identity, leak-free drain), and the corruption drill
# (a bit-flipped cache entry is quarantined and re-simulated, an
# undamaged one still disk-hits).
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve -run 'TestCacheHit|TestDrain|TestSIGTERM|TestConcurrentDuplicate|TestServedDigestsMatchDirectRuns|TestCorruptEntryNeverServed'

# Short fuzzes of the generator's name parser/validator, of the fault
# scenario parser (Parse/Validate, String round trip), of the service's
# job-spec boundary (decode, normalize, address, validate), of its
# disk-cache header parser (no panic, framing round trip), of the
# client's ndjson stream consumer (no panic, success exactly when done)
# and of the TLB (an op stream against a reference true-LRU model);
# the seed corpora also run on every plain `go test`. The stream seeds
# are real server streams of up to ~20 KB, and the default minimization
# of one new input (up to 60s) would use the whole fuzz budget, so that
# target caps it at 100 runs.
fuzz-smoke:
	$(GO) test ./internal/workgen -run FuzzParseValidate -fuzz FuzzParseValidate -fuzztime 10s
	$(GO) test ./internal/faults -run FuzzFaultsParse -fuzz FuzzFaultsParse -fuzztime 10s
	$(GO) test ./internal/serve -run FuzzJobSpec -fuzz FuzzJobSpec -fuzztime 10s
	$(GO) test ./internal/serve -run FuzzDecodePayload -fuzz FuzzDecodePayload -fuzztime 10s
	$(GO) test ./internal/client -run FuzzAwaitStream -fuzz FuzzAwaitStream -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/vm -run FuzzTLB -fuzz FuzzTLB -fuzztime 10s

# Refreshes every golden file: the healthy suite (golden_suite.txt), the
# degraded suite (golden_faults.txt) and the generated differential
# suite (golden_generated.txt).
golden:
	$(GO) test ./internal/harness -run 'Golden|TestGeneratedGoldenDigests' -update

# The trace, faults, generator and service smokes are not repeated here:
# test and race already run every test they select, and the CLI's own
# tests run their command lines.
ci: build lint lint-timing test race bench-quick bench-smoke
