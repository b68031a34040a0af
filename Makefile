# govp build/test entry points. `make tier1` is the gate every change
# must pass: build, vet, and the full test suite under the race
# detector — mandatory now that campaigns execute on worker pools. The
# suite includes the source lints (lint_test.go at the module root, one
# type-checked load of the module; DESIGN §17), so no lint needs a step
# of its own.

GO ?= go

.PHONY: all build vet test race shuffle tier1 capture-mutants loc bench bench-pairs bench-smoke bench-obs fuzz-smoke daemon-e2e fabric-e2e

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The state, engine and front-end packages again in shuffled test order
# (ROADMAP 4f): a test that only passes after another one has warmed a
# runner, a node pool or a digest cache is hiding an order dependence.
# The module root is here for the source lints, which share one lazily
# loaded module.
shuffle:
	$(GO) test -shuffle=on ./internal/sim/... ./internal/ecu ./internal/stressor/... \
		./internal/campaignd ./internal/scenario ./internal/journal ./internal/fabric ./internal/caps \
		./internal/can ./internal/tlm .

tier1: build vet race shuffle

# How much of each model's state capture, restore and digest the
# state-coverage lint holds (scripts/capture-mutants.sh): every assignment
# and call statement in the SnapshotState, RestoreState and HashState
# bodies of caps, can, tlm and the ECU slot, and in the ECU helpers the
# capture and restore call, is commented out in turn, in a copy of the
# tree, against that package's TestStateCoverage*. Fails on a surviving
# deletion its allow-list does not give a reason for. CI runs it in the
# tier1 job.
capture-mutants:
	GO=$(GO) sh scripts/capture-mutants.sh

# Non-test, non-blank Go lines per top-level package, and the delta
# against REF (default: where this branch left main; on main, HEAD) —
# how ROADMAP's "net LoC goes down" is counted. Informational, never a
# gate.
REF ?=
loc:
	sh scripts/loc.sh $(REF)

# The canonical campaign benchmark (BENCHMARK.json, bench/README.md):
# six workloads, end-to-end and per-layer metrics. Add `-out SET.json`
# to record the run; `go run ./bench -compare A.json B.json` diffs two
# sets.
bench:
	$(GO) run ./bench

# How a performance claim is measured (bench/README.md): PAIRS
# interleaved runs of one workload's driver form on PARENT's bench and
# on this tree's, alternating which side goes first; prints both medians
# and quartiles, the ratio with its base, pairs won and whether every
# change run beats every parent run, per metric.
PARENT ?= HEAD
WORKLOAD ?= caps-perm-sweep
PAIRS ?= 10
bench-pairs:
	GO=$(GO) sh scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# One iteration of every benchmark in the module: catches benchmarks
# that rot (compile but crash) without paying for real measurement.
# Measurement is `make bench`.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Native fuzzing smoke: run each fuzz target for FUZZTIME (~90s total
# at the default). The seed corpora alone run under `go test`; this
# target actually mutates, catching parser/interpreter/journal
# regressions the fixed seeds would miss, a content index that folds
# what the old string key kept apart (FuzzContentIndex) — and, with the two
# FuzzScenarioEquivalence targets, an engine shortcut (reuse, tree,
# early-exit, shard, resume, paged state) that classifies a generated
# scenario differently from the naive rebuild path.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzInterp -fuzztime=$(FUZZTIME) ./internal/mdl
	$(GO) test -run=NONE -fuzz=FuzzDescriptor -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run=NONE -fuzz=FuzzJournalBinary -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run=NONE -fuzz=FuzzMergeJournals -fuzztime=$(FUZZTIME) ./internal/stressor
	$(GO) test -run=NONE -fuzz=FuzzContentIndex -fuzztime=$(FUZZTIME) ./internal/stressor
	$(GO) test -run=NONE -fuzz=FuzzCampaignSpec -fuzztime=$(FUZZTIME) ./internal/campaignd
	$(GO) test -run=NONE -fuzz=FuzzScenarioEquivalence -fuzztime=$(FUZZTIME) ./internal/ecu
	$(GO) test -run=NONE -fuzz=FuzzScenarioEquivalence -fuzztime=$(FUZZTIME) ./internal/caps

# Campaign-service end-to-end: the goldenfile CLI harness plus the
# capsimd daemon lifecycle matrix (kill/restart resume, concurrent
# clients, malformed specs), under the race detector.
daemon-e2e:
	$(GO) test -race -count=1 ./internal/campaignd ./internal/clitest

# Distributed-fabric end-to-end: the coordinator/worker chaos suite
# (kill/stall/steal with byte-identical recovery), the stressortest
# distributed axis on both prototypes, and the coord/worker subprocess
# goldens, all under the race detector.
fabric-e2e:
	$(GO) test -race -count=1 ./internal/fabric ./internal/clitest
	$(GO) test -race -count=1 -run 'Matrix' ./internal/caps ./internal/ecu

# Telemetry-plane overhead: Prometheus exposition encode and flight-
# recorder writes, with -benchmem so the zero-allocs/op steady state
# is visible; TestPromEncodeZeroAlloc and
# TestFlightRecorderRecordZeroAlloc gate the same property in tier1.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkObsExposition|BenchmarkFlightRecorder' -benchmem ./internal/obs
