# Build/CI entry points. `make ci` is the gate every PR must pass: format
# check, vet, build, the full test suite under the race detector (mandatory
# now that the parallelx worker pools share state across goroutines), the
# benchmark smokes, and the command smokes.
#
# The gate is split so CI can fan the slow halves out as parallel jobs
# (.github/workflows/ci.yml) while one `make ci` still runs everything
# locally:
#
#   ci-quick   fmt-check + vet + build + test — the fast inner loop
#   race       the full suite under the race detector
#   ci-bench   the benchmark smokes (SLAM arena, fault, batch, workloads,
#              roofline, the end-to-end benchmark module's tests)
#              plus the BENCH_core.json regression gate
#   ci-smoke   the end-to-end command smokes, including the fleetd pipeline
#              and the crash/recovery chaos harness (scripts/fleet_chaos.sh)
#   vuln       govulncheck, when installed (CI installs it; locally it is
#              skipped with a notice rather than failed)

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet vet-failpoint test test-failpoint race fmt-check vuln bench-slam bench-fault bench-batch bench-workloads bench-json bench-roofline bench-guard bench-e2e smoke-cmds ci-quick ci-bench ci-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# The failpoint build tag swaps in the chaos-injection crash hooks; both
# halves of the tagged pair must stay vet-clean or the chaos harness rots.
vet-failpoint:
	$(GO) vet -tags failpoint ./...

# Fail on any file gofmt would rewrite, listing the offenders.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Known-vulnerability scan. govulncheck is not vendored; CI installs it,
# local runs without it skip rather than fail.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# SLAM smoke: the sequence-arena guards (a warm RunSequence's heap budget
# per frame, and an arena reused across sequences giving a fresh arena's
# bits and keeping no map pointer); the tracking kernels' bit-identity set
# (the pose and point solvers and the prepared rotation against their
# references, the cell-ordered projection search against its map oracle,
# the bench harness's repeatable local BA, and the benchmark sequences'
# ATE, Stats, trajectory and landmark goldens), so a kernel edit that moves
# a bit fails here; and bundle adjustment's pool invariance under the race
# detector, since its structure step fans out in chunks. The SLAM kernels'
# speed is BENCH rows.
bench-slam:
	$(GO) test ./slam/ -run '^(TestRunSequenceAllocBudget|TestRunSequenceArenaReuse)$$'
	$(GO) test ./slam/ ./mathx/ -run '^(TestOptimizePoseMirrorBitIdentical|TestOptimizePoseDegenerateBitIdentical|TestRefinePointBitIdentical|TestRotationApplyMatchesRotate|TestMatchByProjectionGridEquivalence|TestBenchHarnessLocalBARepeatable|TestBenchmarkSequenceGoldens)$$'
	$(GO) test -race ./slam/ -run '^TestBundleAdjustPoolInvariant$$'

# Fault-campaign smoke: the faultx acceptance tests (pool-invariance,
# severe-scenario degradation, fault-free bit-identity, shared flights
# matching solo ones) under the race detector; the telemetry receive path's
# zero-alloc guards (a warmed parser Push, lossy-link Transmit and campaign
# row receive must not allocate) and the parser's frame-ownership test; ten
# seconds of fuzzing the parser from its committed corpus; plus the standard
# CLI campaign at one seed and, as JSON, at two seeds, whose rows share
# flights within and not across seeds, so fault-injection regressions
# surface in CI.
bench-fault:
	$(GO) test -race ./faultx/ -run 'TestCampaignPoolInvariance|TestSevereScenario|TestFaultFreeBitIdentical|TestCampaignSharedFlightsMatchSolo'
	$(GO) test ./mavlink/ ./faultx/ -run 'TestPushZeroAlloc|TestPushFramesOwnership|TestLossyLinkZeroAlloc|TestLossyLinkAcceptsOwnBuffers|TestRowReceiveZeroAlloc'
	$(GO) test ./mavlink/ -run '^$$' -fuzz '^FuzzParserPush$$' -fuzztime 10s
	$(GO) run ./cmd/faultcamp -procs 2 -seconds 120 >/dev/null
	$(GO) run ./cmd/faultcamp -procs 2 -n 2 -json >/dev/null

# Batch-engine smoke: the batch↔serial bit-identity property tests (batch
# 1/8/64 × pools 1/2/8) and the released-stack reuse properties under the
# race detector, plus the alloc-regression guards: a steady-state batched
# step (telemetry included) must not allocate at all, on the serial path or
# fanned out at pool 2 over more than one lane chunk, nor may a step across
# a recording chunk edge on warm chunk free lists; a warm
# Build → Run → Release cycle, a cold Build on an emptied pool and a
# one-second fleetd job must stay within their heap budgets, a day-long
# Build may cost no more than a minute-long one, and the chunked recordings
# must read back what was appended. The fleet-owned job path has its own guards: a
# journaled job with a drained subscriber stays within its budget, a warm
# digest allocates only its strings (and matches the per-value oracle), a
# warm journal append allocates nothing, and subscriber rings grow with
# their backlog up to the queue depth.
bench-batch:
	$(GO) test -race ./scenario/ -run 'TestBatchSerialBitIdentity|TestBatchTickGranularityInvariance|TestBatchLaneErrorIsolation|TestReleasedBuffersBitIdentical|TestReleasedStackBitIdentical|TestFailedBuildKeepsPool|TestReleasedStackPinsNoTenant'
	$(GO) test ./scenario/ -run 'TestBatchZeroAllocSteadyState|TestBuildRunReleaseAllocBudget|TestColdBuildAllocBudget|TestBuildAllocIndependentOfMaxSeconds|TestChunkEdgeZeroAlloc'
	$(GO) test ./parallelx/ -run 'TestRecording'
	$(GO) test ./fleet/ -run 'TestDropArtifactsJobAllocBudget|TestReleasedJobUnpinsHub|TestJournaledJobAllocBudget|TestDigestMatchesOracle|TestDigestAllocs'
	$(GO) test ./fleet/journal/ -run 'TestAppendReusesFrameBuffer'
	$(GO) test ./groundstation/ -run 'TestSubRingShedsAtDepth|TestSubRingGrowKeepsOrder|TestSubRingStaysSmallForReader|TestSubscribeClosedHubNoRing|TestHubBacklog'

# End-to-end benchmark smoke: the benchmark module's own tests (every
# workload, plain and traced, at -scale 0.01). The benchmark is a nested
# module, so the root `go test ./...` never reaches it.
bench-e2e:
	cd benchmark && $(GO) test ./...

# Workload-layer smoke: the pluggable-workload acceptance tests — wire
# round-trips, per-workload golden digests at several batch/pool shapes, the
# mixed-co-tenant bit-identity property, and the zero-alloc guard over every
# workload kind — under the race detector, plus delivery, hover and follow
# flights through the CLI, each of which exits non-zero unless it disarms:
# the payload-mass path, the shared landing watch and flysim's phase lines.
bench-workloads:
	$(GO) test -race ./mission/ ./scenario/ -run 'TestWorkload|TestLawnmower|TestTargetModel'
	$(GO) test -race ./fleet/ -run 'TestWorkloadRoundTrip|TestSubmitValidation'
	$(GO) run ./cmd/flysim -workload delivery -seconds 120 >/dev/null
	$(GO) run ./cmd/flysim -workload hover -seconds 5 >/dev/null
	$(GO) run ./cmd/flysim -workload follow >/dev/null

# The BENCH set: every kernel BENCH_core.json records, each one Benchmark*
# function in the package that owns it, run in five rounds. Rounds rather
# than -count 5, which times a row's samples back to back: spread over the
# whole run, a row's min-max spread also shows the host drifting. cmd/benchjson
# reads the go test output, takes each row's median, min and max, adds the
# roofline placements, and fails on a FAIL line or a package without "ok"
# (make's /bin/sh has no pipefail).
BENCH = for round in 1 2 3 4 5; do $(GO) test -run '^$$' -benchmem -count 1 \
	-bench '^Benchmark(Resolve|SweepCapacity|BestConfig|ParetoPayloadFrontier|EKFPredict|PackDrawPower|Build|Run|Batch|Advance|Generate|Detect|MatchByProjection|BundleAdjustLocal|RunSequence|Fig10|SLAMSuite)$$' \
	. ./core ./estimation ./power ./scenario ./fleet ./faultx ./dataset ./slam || break; done | $(GO) run ./cmd/benchjson

# Perf trajectory artifact: regenerate BENCH_core.json from the BENCH set.
bench-json:
	$(BENCH) -o BENCH_core.json

# Roofline smoke: the arithmetic-intensity ledgers and roof placements must be
# bit-identical across pool sizes (golden + completeness tests), and the
# generator itself must run clean.
bench-roofline:
	$(GO) test ./roofline/ ./cmd/roofline/
	$(GO) run ./cmd/roofline -procs 2 -nofig >/dev/null

# Perf-regression gate: re-measure the whole BENCH set and compare each
# row's median ns/op with the committed BENCH_core.json (fail beyond +25%,
# or on any allocation by a row whose baseline allocs/op is 0; a row whose
# spread exceeds the bound on either side reads "unresolved"). Re-baseline
# deliberately with `make bench-json` and commit the diff.
bench-guard:
	$(BENCH) -base BENCH_core.json -o /tmp/bench_guard_new.json

# End-to-end command smoke: build and briefly run every cmd binary, so a
# refactor that compiles but breaks a tool's wiring (all of them now build
# their stacks through the scenario engine) fails CI, not the first user.
smoke-cmds:
	$(GO) build ./cmd/...
	$(GO) run ./cmd/dse >/dev/null
	$(GO) run ./cmd/dse -wheelbase 200 -best >/dev/null
	$(GO) run ./cmd/dse -require 15 >/dev/null
	$(GO) run ./cmd/dse -pareto >/dev/null
	$(GO) run ./cmd/flysim -seed 1 >/dev/null
	$(GO) run ./cmd/faultcamp -procs 2 -seconds 120 >/dev/null
	$(GO) run ./cmd/figures -fig 10 -procs 2 >/dev/null
	$(GO) run ./cmd/figures -fig 15 >/dev/null
	$(GO) run ./cmd/figures -fig 16 >/dev/null
	$(GO) run ./cmd/figures -fig 17 -seqs 1 -procs 2 >/dev/null
	$(GO) run ./cmd/benchjson -o - <cmd/benchjson/testdata/pass.txt >/dev/null
	sh scripts/fleet_smoke.sh
	sh scripts/fleet_chaos.sh

# The crash-window property tests that need the failpoint hooks compiled in.
test-failpoint:
	$(GO) test -tags failpoint -run 'TestCrash' ./fleet/

ci-quick: fmt-check vet vet-failpoint build test

ci-bench: bench-slam bench-fault bench-batch bench-workloads bench-roofline bench-guard bench-e2e

ci-smoke: test-failpoint smoke-cmds

ci: fmt-check vet vet-failpoint build race ci-bench ci-smoke
