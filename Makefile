# TD-NUCA reproduction — build / test / CI entry points.
#
#   make ci          everything a PR must pass: build, vet, lint, tests,
#                    race, one-iteration benchmark smoke, the bench/
#                    module's smoke test
#   make lint        gofmt check + go vet + tdnuca-lint, the repo's own
#                    static-analysis suite (determinism / hot-path
#                    allocation / units; DESIGN.md §9)
#   make lint-timing lint under a wall-clock budget: the analyzer must
#                    stay fast enough to run on every PR
#   make race        race detector over the concurrent harness and the
#                    packages its worker pool drives
#   make bench       measure the simulator-core benchmarks and write the
#                    machine-readable BENCH_simcore.json
#   make bench-quick one iteration of every benchmark (compile + smoke)
#   make bench-smoke the end-to-end benchmark module's own tests (bench/,
#                    the harness bench/run.sh builds), run with that
#                    script's hermetic Go environment
#   make bench-ab    REF=<commit> WORKLOAD=<w> PAIRS=10: the working tree
#                    against REF on bench/run.sh in alternating pairs,
#                    with medians, IQRs, wins and a verdict per metric
#                    (about 70 s per pair; not part of ci)
#   make trace-smoke one traced run through the experiments CLI: writes
#                    and validates the Chrome trace + interval series and
#                    checks the cycle stack sums to cores x makespan
#   make faults-smoke degraded (fault-injected) suite checked against its
#                    golden digests, plus worker-count independence
#   make gen-smoke   generated-workload differential suite (pinned golden
#                    digests, cross-policy access-set equality) plus one
#                    CLI run of a generated workload on the 4x4 and 8x8
#                    meshes
#   make serve-smoke the experiment service's raced package tests:
#                    byte-identical cache hits, concurrent duplicate
#                    submissions coalescing to one simulation, drain and
#                    SIGTERM (DESIGN.md §14); the concurrent-client soak
#                    against direct runs is chaos-smoke's tdnuca-load
#   make chaos-smoke the chaos-hardened stack (DESIGN.md §15): raced
#                    cache-integrity, fault-injection and retrying-client
#                    tests, then the tdnuca-load soak — 8 clients x 1000
#                    jobs through seeded severity-2 chaos, asserting
#                    exactly-once simulation, byte fidelity against
#                    direct runs, quarantine of corrupted cache entries
#                    and a leak-free drain
#   make fuzz-smoke  short fuzzes of the workload-generator name parser
#                    and validator, of the -faults scenario parser and of
#                    the service's job-spec boundary (seed corpora always
#                    run under test)
#   make golden      refresh the golden suite digests (healthy, degraded
#                    and generated) after an intentional behavioral change

GO ?= go

.PHONY: build test race vet fmt-check lint lint-timing bench bench-quick bench-smoke bench-ab trace-smoke faults-smoke gen-smoke serve-smoke chaos-smoke fuzz-smoke golden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel suite runner fans independent machines/runtimes out across
# goroutines (one machine per run, never shared); the race detector over
# these packages is the proof that no unsynchronized shared state sneaks
# back in (e.g. the old package-level WatchBlock). The harness tests
# include the degraded (fault-injected) parallel suite, so mid-run
# reconfiguration is raced too.
race:
	$(GO) test -race -timeout 3600s ./internal/harness ./internal/machine ./internal/taskrt ./internal/serve ./internal/chaos ./internal/client

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

# The tracked simulator-core numbers: ns and allocs per simulated
# access (hit and eviction-churn variants) plus the full experiment
# suite's wall time, written as BENCH_simcore.json next to the frozen
# pre-optimization baseline (schema in EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMemoryAccess$$|BenchmarkMemoryAccessEvict$$|BenchmarkFullSuite$$|BenchmarkFullSuiteSequential$$|BenchmarkFullSuiteParallel2$$|BenchmarkFullSuiteParallel4$$' \
		-benchmem -timeout 3600s . | $(GO) run ./cmd/tdnuca-bench -o BENCH_simcore.json

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
# itself, exiting non-zero on any mismatch (DESIGN.md §10).
trace-smoke:
	$(GO) run ./cmd/tdnuca-experiments -trace LU -trace-out /tmp/tdnuca-trace-smoke.json \
		-interval 5000 -factor 0.0078125

# Digest-checked degraded run: the fault-injected suite must reproduce
# its golden digests bit-for-bit, stay coherent (zero violations), and be
# independent of the worker count (DESIGN.md §11).
faults-smoke:
	$(GO) test ./internal/harness -run 'TestDegradedGoldenDigests|TestDegradedRunsStayCoherent|TestDegradedWorkerEquivalence'

# The generated-workload differential layer: pinned workgen seeds must
# reproduce their golden digests with identical access sets across
# policies and worker counts, then one CLI run exercises the 4x4 and the
# generalized 8x8 mesh end to end (DESIGN.md §12).
gen-smoke:
	$(GO) test ./internal/harness -run 'TestGenerated'
	$(GO) run ./cmd/tdnuca-experiments -gen seed=3,depth=4,width=8 -check -factor 0.0078125
	$(GO) run ./cmd/tdnuca-experiments -gen seed=3,depth=4,width=8 -mesh 8x8 -check -factor 0.0078125

# The experiment-service layer (DESIGN.md §14): raced package tests for
# byte-identical cache hits, coalescing of concurrent duplicate
# submissions, and the drain / SIGTERM paths. Digest fidelity against
# direct harness runs and the leak-free drain under concurrent clients
# are tdnuca-load's invariants, run by chaos-smoke.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve -run 'TestCacheHit|TestDrain|TestSIGTERM|TestConcurrentDuplicate'

# The chaos-hardened stack (DESIGN.md §15): raced integrity / chaos /
# client packages (the corruption, stream-resume and idempotent-
# resubmission tests), then the full soak — 8 concurrent retrying
# clients push 1000 jobs through a seeded severity-2 fault-injecting
# transport and a corruption drill over the disk cache, exiting
# non-zero if any invariant (exactly-once simulation, byte fidelity,
# quarantine, leak-free drain) is violated.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos ./internal/client
	$(GO) test -race -count=1 ./internal/serve -run 'TestCacheCorrupt|TestCacheHeaderTamper|TestCacheIndexRebuilt|TestCacheFlushIncludesEvicted|TestCorruptEntryNeverServed'
	$(GO) run -race ./cmd/tdnuca-load -clients 8 -jobs 1000 -severity 2 -factor 0.0078125 -out /tmp/tdnuca-load-report.json

# Short fuzzes of the generator's name parser/validator, of the fault
# scenario parser (Parse/Validate, String round trip) and of the
# service's job-spec boundary (decode, normalize, address, validate);
# the seed corpora also run on every plain `go test`.
fuzz-smoke:
	$(GO) test ./internal/workgen -run FuzzParseValidate -fuzz FuzzParseValidate -fuzztime 10s
	$(GO) test ./internal/faults -run FuzzFaultsParse -fuzz FuzzFaultsParse -fuzztime 10s
	$(GO) test ./internal/serve -run FuzzJobSpec -fuzz FuzzJobSpec -fuzztime 10s

# Refreshes every golden file: the healthy suite (golden_suite.txt), the
# degraded suite (golden_faults.txt) and the generated differential
# suite (golden_generated.txt).
golden:
	$(GO) test ./internal/harness -run 'Golden|TestGeneratedGoldenDigests' -update

ci: build lint lint-timing test race bench-quick bench-smoke trace-smoke faults-smoke gen-smoke serve-smoke chaos-smoke
