GO ?= go

# GOTAGS selects the build variant: empty for the native build (AVX2
# distance kernel on amd64, runtime feature detection), `purego` for the
# portable pure-Go reference build. CI runs both; `make ci-purego` is the
# local equivalent of the workflow's purego leg. Every Go-invoking target
# honors it, so the Makefile is the single source of truth the GitHub
# workflow calls into — no build logic lives in YAML.
GOTAGS ?=
TAGFLAG = $(if $(GOTAGS),-tags $(GOTAGS))

.PHONY: ci ci-purego check fmt vet build test test-race test-scale test-trace cover fuzz-short test-fault test-service bench docs clean clean-check

# ci is the full local tier-1 gate: the hardware-independent checks plus
# the trace, fault-injection and sweep-service suites, the
# population-scale tiled-identity smoke, a short fuzz run beyond the
# committed seed corpora and the benchmark smoke run. Timing is measured,
# not gated, here: `bash perfbench/run.sh` runs the end-to-end workloads.
ci: check test-trace test-fault test-service test-scale fuzz-short bench

# ci-purego is the fallback-path leg of the matrix: the same
# hardware-independent gate with the assembly kernel compiled out.
ci-purego:
	$(MAKE) check GOTAGS=purego

# check is the hardware-independent gate CI runs on every push for every
# build variant: formatting, static checks (the nested perfbench module
# included), build, tests (including the kernel property/fuzz seed
# corpus that pins the AVX2 and pure-Go paths bit-identical, and
# TestSteadyStateAllocs, the zero-allocation gate over the hot loops),
# the race-detector pass over the parallel-merge packages, the mobility
# coverage floor, and the docs gate.
check: fmt vet build test test-race cover docs

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also covers the benchmark module: `./...` stops at perfbench's own
# go.mod, so an internal API change that breaks the benchmark would
# otherwise pass. It runs offline — the module only replaces ../ and has
# no other dependencies.
vet:
	$(GO) vet $(TAGFLAG) ./...
	$(GO) -C perfbench vet $(TAGFLAG) ./...

build:
	$(GO) build $(TAGFLAG) ./...

test:
	$(GO) test $(TAGFLAG) ./...

# test-race runs the race detector over the packages whose property tests
# exercise the parallel shard merges (tiled flood sweep, tiled index
# passes, parallel population stepping with the fused classify writing
# the shared cells buffer) and the sweep runner's trial fan-out (workers
# running a trial's radius lanes share the per-cell outcome slices and
# the checkpoint journal) — exactly where an unsynchronized read would
# hide behind deterministic output.
test-race:
	$(GO) test $(TAGFLAG) -race ./internal/core ./internal/sim ./internal/mobility/... ./internal/spatialindex ./internal/experiments

# test-scale runs the opt-in 100k-agent tiled-vs-flat bit-identity smoke
# (TestScaleBitIdentity): the small property grids cover every regime,
# this one runs the tiled flood sweep's whole-tile skips, row-fragment
# merge and sharded delta sync when each tile holds thousands of buckets
# and agents. Seconds, not milliseconds, hence the env gate instead of
# running under plain `go test ./...`.
test-scale:
	FLOODSIM_SCALE_TEST=1 $(GO) test $(TAGFLAG) -run TestScaleBitIdentity ./internal/core/

# test-trace gates the recording stack end to end: the tracev2 codec
# property tests (round-trip, seek, torn-tail and corruption discipline,
# writer zero-alloc) plus the public-API round-trip matrix — record a
# real flood across tiled/parallel worlds and both index-sync regimes,
# replay it, and require bit-identical positions, informed sets and
# discovery order. -count=1 keeps the randomized legs honest across
# repeated ci runs on an unchanged tree.
test-trace:
	$(GO) test $(TAGFLAG) -count=1 ./internal/tracev2/
	$(GO) test $(TAGFLAG) -count=1 -run 'TestRecord|TestObserver|TestSourceExplicit' .

# cover enforces the coverage floor on the mobility layer: the SoA
# populations the simulator steps port every reference agent's stepping
# logic, so untested lines there are exactly where a divergence from the
# AoS reference would hide. The profile merges package mobility's own
# tests with the soatest differential harness (-coverpkg crosses the
# package boundary).
MOBILITY_COVER_FLOOR = 80.0
cover:
	@$(GO) test $(TAGFLAG) -coverpkg=./internal/mobility -coverprofile=/tmp/mobility_cover.out ./internal/mobility/... > /dev/null
	@total=$$($(GO) tool cover -func=/tmp/mobility_cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/mobility coverage: $$total% (floor $(MOBILITY_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(MOBILITY_COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage below floor"; exit 1; }

# fuzz-short runs each fuzzer briefly past its seed corpus — a cheap
# randomized sweep for kernel-vs-reference, trace-encoder-vs-reference
# and trip-sampler-vs-reference divergence, for trace reader panics or
# allocation blow-ups on hostile bytes, for checkpoint journals that
# OpenAppend accepts but cannot append to, and for journals Open loads
# against its rule (unterminated tail dropped, earlier corruption a hard
# error), on every full ci run;
# `go test -fuzz <name>` without -fuzztime searches indefinitely.
fuzz-short:
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzBucketsDifferential -fuzztime 15s ./internal/kernel/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzMaskDifferential -fuzztime 15s ./internal/kernel/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzOpenReplay -fuzztime 15s ./internal/tracev2/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzAppendDeltaColumn -fuzztime 15s ./internal/tracev2/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzTripSample -fuzztime 15s ./internal/dist/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzOpenAppend -fuzztime 15s ./internal/checkpoint/
	$(GO) test $(TAGFLAG) -run '^$$' -fuzz FuzzJournalLoad -fuzztime 15s ./internal/checkpoint/

# FAULTTAGS appends the faultinject tag to the active variant, so the
# fault suite can run against either kernel build.
comma = ,
FAULTTAGS = $(if $(GOTAGS),$(GOTAGS)$(comma)faultinject,faultinject)

# test-fault runs the fault-injection suite: the faultinject build tag
# compiles the hook registry in (Active = true) and the suite forces
# trial panics, worker stalls, a mid-sweep kernel downgrade and spatial
# index rebuild bails against the production sweep runner. The -race leg
# catches unsynchronized hook firing; the experiments package rides along
# to prove its crash-safety tests survive with the hooks compiled in.
test-fault:
	$(GO) test -tags $(FAULTTAGS) ./internal/faultinject/ ./internal/experiments/
	$(GO) test -tags $(FAULTTAGS) -race ./internal/faultinject/

# test-service gates the sweep service end to end: the scheduler/HTTP
# unit and load tests with a -race leg (concurrent admission, tenant
# round-robin, the committer and watchdog abandonment are exactly where
# races hide), the faultinject variants (injected worker stalls tripping
# the watchdog, injected panics poisoning single jobs, failed journal
# commits degrading single jobs, a stalled commit holding the workers
# back), and the cmd/floodd e2e suite
# that SIGKILLs the real daemon mid-sweep and requires the restarted one
# to finish with byte-identical results.
test-service:
	$(GO) test $(TAGFLAG) ./internal/service/ ./cmd/floodd/
	$(GO) test $(TAGFLAG) -race ./internal/service/
	$(GO) test -tags $(FAULTTAGS) ./internal/service/
	$(GO) test -tags $(FAULTTAGS) -race ./internal/service/

# bench runs the micro-benchmarks briefly — a smoke test that they still
# run, not a measurement (the allocation gate is TestSteadyStateAllocs,
# under test). CellRunnerLanes2k prices a floodd cell run alone against
# the same cell run as a radius lane of its trial. The spatialindex leg runs the 100k-agent rebuild (flat
# and tiled) and the tiled delta sync at the flood_sparse_100k geometry.
# The trace legs run the delta-frame writer and the delta-column encode
# kernel on both of its paths, so the native leg executes the BMI2
# assembly where the CPU has it.
bench:
	$(GO) test $(TAGFLAG) -run '^$$' -bench 'WorldStep10k|MobilityAdvance10k|FloodStep4k$$|IndexRebuild10k|IndexNeighbors10k|CellRunnerLanes2k' -benchtime 100x -benchmem .
	$(GO) test $(TAGFLAG) -run '^$$' -bench 'RebuildXYCells100k|UpdateCells100kTiled' -benchtime 10x -benchmem ./internal/spatialindex
	$(GO) test $(TAGFLAG) -run '^$$' -bench 'WriteStepDelta20k' -benchtime 100x -benchmem ./internal/tracev2
	$(GO) test $(TAGFLAG) -run '^$$' -bench 'PutDeltaVarints20k' -benchtime 100x ./internal/kernel

# docs verifies that every package carries a doc comment and that the
# links in README.md / ARCHITECTURE.md resolve.
docs:
	$(GO) run ./cmd/docscheck

clean:
	$(GO) clean ./...

# clean-check is the CI step that keeps build artifacts out of PRs: after
# a full build-and-test cycle plus `make clean`, the working tree must be
# byte-identical to the checkout — any stray `*.test` binary, generated
# file or formatting drift fails the job. (Run it from a clean checkout;
# a dirty development tree will rightly fail.)
clean-check: clean
	@status="$$(git status --porcelain)"; \
	if [ -n "$$status" ]; then \
		echo "working tree not clean after build + make clean:"; echo "$$status"; exit 1; \
	fi
