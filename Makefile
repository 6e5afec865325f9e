# Verification harness for the SketchML reproduction.
#
# `make verify` is the pre-PR gate: build, formatting, go vet, the
# project's own static analyzers (cmd/sketchlint), unit tests, the
# race-matrix sweep, and a fuzz smoke over the wire-format decoders.
# `make fuzz` runs the fuzzers longer. See DESIGN.md "Verification &
# static analysis" and ROADMAP.md "Verification".

GO       ?= go
FUZZTIME ?= 10s
# fuzz-smoke keeps verify fast; the seed corpora under testdata/fuzz run
# unconditionally as part of `go test` either way.
SMOKE_FUZZTIME ?= 5s

# race-matrix sweeps scheduler pressure (GOMAXPROCS) against codec worker
# count (SKETCHML_PARALLELISM, consumed by codec.parallelism when
# Options.Parallelism is 0). The concurrency-heavy packages run under
# -race at every point; -count=1 defeats the test cache so each point
# really executes.
MATRIX_GOMAXPROCS   ?= 1 2 8
MATRIX_PARALLELISM  ?= 0 1 4
MATRIX_PKGS         ?= ./internal/codec ./internal/trainer ./internal/cluster ./internal/service
# Flags for `make bench`; override with e.g. BENCHFLAGS=-benchtime=1x for a
# smoke run that only checks the pipeline still works.
BENCHFLAGS ?= -benchtime=0.5s
# bench-check tolerance in percent, and extra benchjson flags. CI passes
# BENCH_COMPARE_FLAGS=-alloc-only because committed wall times mean
# nothing on another machine, while allocation counts are stable.
BENCH_TOLERANCE ?= 25
BENCH_COMPARE_FLAGS ?=
# Steady-state benchmark surface: the codec encode/decode sweep, the
# wire-to-wire merge path, and the cluster deadline-receive loop. All feed
# one benchjson document; the committed BENCH_ceilings.json pins absolute
# allocs/op ceilings for the machine-independent rows (0 for DecodeInto and
# the serial SketchML and Raw MergeInto rows, 50 for the two-worker _par2
# merge rows, 17 for Encode, 2 for RecvTimeout), because a 0 -> 1
# allocation regression is invisible to percentage thresholds.
BENCH_PKGS     ?= ./internal/codec ./internal/cluster
BENCH_PATTERN  ?= 'BenchmarkEncodeDecode|BenchmarkMerge|BenchmarkRecvTimeoutSteadyState'
BENCH_CEILINGS ?= BENCH_ceilings.json
# Fault seed for the race-matrix chaos point; the default chaos-soak run
# uses the test's built-in seed, so the matrix exercises a second schedule.
CHAOS_MATRIX_SEED ?= 7
# sketchlint inputs: the committed suppression baseline (accepted findings
# with documented reasons; stale entries fail the run), the summary cache
# that keeps warm runs fast, and the compiler-oracle cache that keeps the
# -gcflags builds from rerunning when nothing changed (both machine-local,
# gitignored, safe to delete).
LINT_BASELINE     ?= lint.baseline.json
LINT_CACHE        ?= .sketchlint-cache.json
LINT_ORACLE_CACHE ?= .sketchlint-oracle-cache.json

# Native fuzz targets, as "package:Target" pairs. Go's fuzzer runs one
# target per invocation, so the fuzz rule loops.
FUZZ_TARGETS := \
	./internal/codec:FuzzSketchMLDecode \
	./internal/codec:FuzzMerge \
	./internal/keycoding:FuzzDeltaRoundTrip \
	./internal/keycoding:FuzzDecodeDeltaRobust \
	./internal/trainer:FuzzCheckpointDecode \
	./internal/service:FuzzJobSpecDecode

.PHONY: all build fmt vet lint lint-stats lint-self test race race-matrix chaos-soak fuzz fuzz-smoke bench bench-check service-smoke verify clean

all: verify

build:
	$(GO) build ./...

# gofmt -l prints offending files; grep -c . turns "any output" into a
# failing exit status with the file list still visible.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/sketchlint -baseline $(LINT_BASELINE) -summary-cache $(LINT_CACHE) \
		-oracle -oracle-cache $(LINT_ORACLE_CACHE) ./...

# lint-stats is the same gate as `lint`, just louder: a per-analyzer table
# of finding counts and wall times, plus summary-build, cache hit/miss,
# and oracle (warm/cold, site counts, build time) lines, so analyzer cost
# regressions are visible in review.
lint-stats:
	$(GO) run ./cmd/sketchlint -baseline $(LINT_BASELINE) -summary-cache $(LINT_CACHE) \
		-oracle -oracle-cache $(LINT_ORACLE_CACHE) -stats ./...

# lint-self points the analyzers at their own implementation with no
# baseline at all: the linter's source must be clean under its own rules,
# or any inline suppression it needs must justify itself in-place.
lint-self:
	$(GO) run ./cmd/sketchlint ./internal/lint ./cmd/sketchlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-matrix:
	@set -e; for gmp in $(MATRIX_GOMAXPROCS); do \
		for par in $(MATRIX_PARALLELISM); do \
			echo "race-matrix: GOMAXPROCS=$$gmp SKETCHML_PARALLELISM=$$par"; \
			GOMAXPROCS=$$gmp SKETCHML_PARALLELISM=$$par \
				$(GO) test -race -count=1 $(MATRIX_PKGS); \
		done; \
	done
	@set -e; ncpu=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN); \
	if [ "$$ncpu" -ge 4 ]; then \
		for par in $(MATRIX_PARALLELISM); do \
			echo "race-matrix: GOMAXPROCS=$$ncpu (NumCPU) SKETCHML_PARALLELISM=$$par"; \
			GOMAXPROCS=$$ncpu SKETCHML_PARALLELISM=$$par \
				$(GO) test -race -count=1 $(MATRIX_PKGS); \
		done; \
	else \
		echo "race-matrix: NumCPU column skipped ($$ncpu CPUs; the fixed 1/2/8 sweep already covers it)"; \
	fi
	@echo "race-matrix: chaos point GOMAXPROCS=4 CHAOS_SEED=$(CHAOS_MATRIX_SEED)"
	GOMAXPROCS=4 SKETCHML_CHAOS_SOAK=1 SKETCHML_CHAOS_SEED=$(CHAOS_MATRIX_SEED) \
		$(GO) test -race -count=1 -run TestChaosSoak ./internal/trainer
	@echo "race-matrix: all points passed"

# chaos-soak trains under seeded fault injection (drops, corruption, dups,
# delays, one worker disconnect+rejoin) under -race and demands exact
# counter reproducibility plus convergence within tolerance of the clean
# run. The race-matrix chaos point above sweeps a second fault seed.
chaos-soak:
	SKETCHML_CHAOS_SOAK=1 $(GO) test -race -count=1 -run TestChaosSoak -v ./internal/trainer

fuzz-smoke:
	@$(MAKE) fuzz FUZZTIME=$(SMOKE_FUZZTIME)

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzzing $$target in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz $$target -fuzztime $(FUZZTIME) $$pkg; \
	done

# bench runs the steady-state micro-benchmarks (codec encode/decode plus
# the cluster receive loop) and rewrites the committed JSON
# baseline. The text output still streams to the terminal; benchjson parses
# the captured copy.
bench:
	@$(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem -count=1 $(BENCHFLAGS) > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o BENCH_codec.json -ceilings $(BENCH_CEILINGS) < bench.out
	@rm -f bench.out
	@echo "bench: wrote BENCH_codec.json"

# bench-check is the regression gate: rerun the steady-state benchmarks
# and exit nonzero when a metric regresses more than BENCH_TOLERANCE
# percent against the committed BENCH_codec.json baseline (ns/op and B/op
# by default; allocs/op and B/op with BENCH_COMPARE_FLAGS=-alloc-only), or
# when any row exceeds its absolute allocs/op ceiling from
# BENCH_ceilings.json (the zero-allocation contract: DecodeInto rows stay
# at 0, the steady-state RecvTimeout row stays at or below 2).
bench-check:
	@$(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem -count=1 $(BENCHFLAGS) > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@$(GO) run ./cmd/benchjson -compare BENCH_codec.json -threshold $(BENCH_TOLERANCE) -ceilings $(BENCH_CEILINGS) $(BENCH_COMPARE_FLAGS) < bench.out; \
		rc=$$?; rm -f bench.out; exit $$rc

# service-smoke is the end-to-end control-plane gate: build the real
# binary, start it in -serve mode, submit a job over HTTP and poll it to
# completion, then SIGTERM the process mid-run on a second job and demand a
# clean drain — checkpoint on disk, exit code 0. The test itself lives in
# cmd/sketchml/serve_smoke_test.go, gated behind the env var so plain
# `go test ./...` stays fast.
service-smoke:
	SKETCHML_SERVICE_SMOKE=1 $(GO) test -count=1 -run TestServiceSmoke -v ./cmd/sketchml

verify: build fmt vet lint lint-self test race-matrix chaos-soak fuzz-smoke service-smoke
	@echo "verify: all gates passed"

clean:
	$(GO) clean ./...
