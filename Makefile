# Development entry points. `make build test` is the tier-1 gate;
# `make race` is the concurrency gate for the multithreaded local kernels
# and the pipelined SUMMA schedule; `make ci` chains everything CI runs on
# every push; `make perfgate` is the nightly perf-regression gate.
# Every target is a one-liner over the standard Go toolchain — no extra
# tools required.

GO ?= go
FUZZTIME ?= 30s
GATE_TOL ?= 0.05

.PHONY: all build test race vet doc bench bench-kernels bench-obs trace cover fuzz perfgate baseline plan serve soak ci

# all: the tier-1 gate (build + test), the default target.
all: build test

# build: compile every package and command.
build:
	$(GO) build ./...

# test: the full unit/differential/metering test suite (tier 1 with build).
test:
	$(GO) test ./...

# race: the packages that run goroutines (simulated ranks in mpi/core,
# worker threads in localmm, concurrent jobs in service) under the race
# detector, race workouts included — the multithreaded kernels, the
# Pipeline=true broadcast prefetch paths (TestPipelinedSUMMARace), and the
# service concurrency workout (N clients racing the plan cache and the
# admission scheduler) are exercised here.
race:
	$(GO) test -race ./internal/localmm ./internal/core ./internal/mpi ./internal/service

# vet: static analysis over every package.
vet:
	$(GO) vet ./...

# doc: documentation hygiene gate — every file must be gofmt-clean (a
# non-empty `gofmt -l` listing fails the target) and pass go vet, whose
# analyzers check doc-comment conventions alongside correctness. Run it
# after editing package comments or doc.go files.
doc:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# bench: every root-level benchmark (per-figure experiment runs plus the
# kernel, merge-strategy, thread-sweep, and staged-vs-pipelined ablations),
# without running tests.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# cover: the full test suite with per-package coverage, writing an HTML
# report to cover.html (open it in a browser to drill into files).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html

# fuzz: bounded fuzz passes over the three untrusted-input parsers — the
# Matrix Market reader, the sparse wire-format deserializer, and the dense
# panel wire-format deserializer (seed corpora in
# internal/spmat/testdata/fuzz plus in-code seeds for the historical
# header-overflow and row-out-of-range bugs). The Go fuzzer takes one
# -fuzz pattern per invocation, hence one line per target. Override
# FUZZTIME for longer local runs, e.g. `make fuzz FUZZTIME=5m`; the
# default 30s bound per target is what `make ci` runs.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadMatrixMarket -fuzztime=$(FUZZTIME) ./internal/spmat
	$(GO) test -run='^$$' -fuzz=FuzzDeserializeMatrix -fuzztime=$(FUZZTIME) ./internal/spmat
	$(GO) test -run='^$$' -fuzz=FuzzDeserializeDense -fuzztime=$(FUZZTIME) ./internal/spmat

# perfgate: the performance-regression gate the nightly workflow enforces.
# Runs pinned fig-6/8 and sparse×dense (spmm) shapes, emits BENCH_pr3.json,
# and fails when any gated
# shape's modeled critical-path seconds exceed the checked-in baseline
# (BENCH_baseline.json) by more than GATE_TOL. The gated metrics are fully
# modeled (α–β comm + work units at a pinned rate), so the comparison is
# machine-independent and deterministic.
perfgate:
	$(GO) run ./cmd/spgemm-bench -gate -json BENCH_pr3.json -baseline BENCH_baseline.json -tol $(GATE_TOL)

# baseline: regenerate the checked-in perf-gate baseline after an intentional
# performance change. Review the diff before committing it.
baseline:
	$(GO) run ./cmd/spgemm-bench -gate -json BENCH_baseline.json

# serve: run the multiply-as-a-service daemon locally (see SERVICE.md for
# the API, `go run ./cmd/spgemmd -h` for the knobs). Ctrl-C stops it.
serve:
	$(GO) run ./cmd/spgemmd

# soak: the service soak — a spgemmd server under concurrent mixed traffic,
# asserting bit-identical outputs, zero probe work after warmup, and
# deadlock-free admission. The nightly workflow runs this; point it at a
# running daemon with `go run ./cmd/spgemm-bench -server URL` instead to
# soak over real HTTP.
soak:
	$(GO) run ./cmd/spgemm-bench -exp service -scale tiny

# plan: the planner-vs-oracle gate the nightly workflow enforces. The
# analytical autotuner plans each gate workload, an exhaustive sweep
# (l × b × format × pipeline for sparse×sparse; the algorithm axis —
# SUMMA vs the 1.5D schedules over c × b — for the sparse×dense
# tall-skinny shape) establishes the true optimum under the same
# deterministic modeled objective, and the target fails when any pick
# lands more than 10% above it.
plan:
	$(GO) run ./cmd/spgemm-bench -plangate -scale tiny

# bench-kernels: regenerate BENCH_kernels.json — the recorded thread sweep
# of the unsorted-hash local multiply and the heap/hash/hybrid crossover
# measurements on this runner. Wall-clock numbers; informational, not a
# regression gate. The snapshot is the evidence for running the unsorted
# hash kernel everywhere: it is fastest at every measured density.
bench-kernels:
	$(GO) test -run='^$$' -bench='HashSpGEMMParallel|KernelCrossover' -benchtime=0.5s ./internal/localmm \
	| awk 'BEGIN{n=0} /^cpu:/{cpu=$$0; sub(/^cpu: */,"",cpu)} /^goos:/{goos=$$2} \
	  /^Benchmark/{name=$$1; sub(/^Benchmark/,"",name); vals[n]=sprintf("    \"%s\": %s",name,$$3); n++} \
	  END{print "{"; printf "  \"cpu\": \"%s\",\n  \"goos\": \"%s\",\n  \"unit\": \"ns/op\",\n  \"regenerate\": \"make bench-kernels\",\n  \"ns_per_op\": {\n", cpu, goos; \
	  for(i=0;i<n;i++) printf "%s%s\n", vals[i], (i<n-1?",":""); print "  }"; print "}"}' \
	> BENCH_kernels.json
	@cat BENCH_kernels.json

# trace: record one pinned gate shape (the overlapped Friendster fig-6
# analogue) with the span recorder on and write the per-rank Chrome
# trace-event timeline to trace.json — load it in chrome://tracing or
# ui.perfetto.dev. `TRACE_SHAPE=<name>` picks another gate shape. The
# nightly workflow uploads the artifact so every night's schedule can be
# eyeballed against the gate numbers it produced.
TRACE_SHAPE ?= fig6-friendster-overlapped
trace:
	$(GO) run ./cmd/spgemm-bench -trace trace.json -traceshape $(TRACE_SHAPE)

# bench-obs: regenerate BENCH_obs.json — the measured cost of one metering
# charge sequence (comm + compute + hidden) with tracing off vs on. The off
# number is the tax every simulation pays for the observability hooks
# (target: zero allocations, nanoseconds); the on number is what a traced
# run pays per charge. Informational snapshot in the BENCH_kernels.json
# style, not a gate — the hard zero-alloc requirement is enforced by
# TestTracingDisabledAddsZeroAllocations in `make test`.
bench-obs:
	$(GO) test -run='^$$' -bench='TraceOverhead' -benchtime=500000x ./internal/mpi \
	| awk 'BEGIN{n=0} /^cpu:/{cpu=$$0; sub(/^cpu: */,"",cpu)} /^goos:/{goos=$$2} \
	  /^Benchmark/{name=$$1; sub(/^Benchmark/,"",name); vals[n]=sprintf("    \"%s\": %s",name,$$3); n++} \
	  END{print "{"; printf "  \"cpu\": \"%s\",\n  \"goos\": \"%s\",\n  \"unit\": \"ns/op\",\n  \"regenerate\": \"make bench-obs\",\n  \"ns_per_op\": {\n", cpu, goos; \
	  for(i=0;i<n;i++) printf "%s%s\n", vals[i], (i<n-1?",":""); print "  }"; print "}"}' \
	> BENCH_obs.json
	@cat BENCH_obs.json

# ci: what the GitHub Actions workflow runs on every push and pull request —
# build, static analysis, gofmt hygiene (doc), the full test suite, the race
# gate, and a bounded (30s) fuzz pass.
ci: build vet doc test race fuzz
