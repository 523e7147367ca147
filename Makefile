# Mirrors .github/workflows/ci.yml: `make ci-fast` is exactly the CI
# fast job, `make ci-full` the full job, `make golden-check` the
# golden-figures job, `make bench-ci` one leg of the bench job.
# Contributors who run these before pushing run exactly what CI runs.

GO ?= go
# The fast CI job pins the same staticcheck release; override to use
# a locally installed binary (STATICCHECK=staticcheck).
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1

.PHONY: all build test test-short race fmt fmt-check vet lint bench bench-ci \
	golden golden-check benchalloc ci-fast ci-full

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Also runs every godoc example (with its Output check) and the
# markdown link check: neither is gated on testing.Short().
test-short:
	$(GO) test -short ./...

# The whole suite under the race detector. STRESS_SEEDS widens the
# seeded storm sweeps (cluster/stress_test.go) from their default of
# one seed per combination; the full CI job runs 20.
STRESS_SEEDS ?= 20
race:
	OMXSIM_STRESS_SEEDS=$(STRESS_SEEDS) $(GO) test -race ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

lint: vet
	$(STATICCHECK) ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The CI bench job's invocation: every figure benchmark once, five
# samples, tests skipped (compare runs with benchstat old.txt new.txt).
bench-ci:
	$(GO) test -bench . -benchtime 1x -count 5 -run '^$$' .

# Regenerate the golden rendering the golden-figures CI job diffs
# against. Commit the result together with the change that explains
# the drift.
golden:
	$(GO) run ./cmd/omxsim all > figures/testdata/omxsim-all.golden

golden-check:
	$(GO) run ./cmd/omxsim all > /tmp/omxsim-all.rendered
	diff -u figures/testdata/omxsim-all.golden /tmp/omxsim-all.rendered

# The allocation gates. The calendar-queue benchmark must report
# exactly 0 allocs/op in steady state, or the zero-allocation claim
# (and with it the 512-rank CI budget) has regressed. Opening an
# endpoint on either stack must allocate at most 64 KiB: the modelled
# 2 MiB receive ring is backed slot by slot on first use, not zeroed
# up front. A 1 MiB ping-pong on either stack must allocate at most
# 256 KiB per simulated MiB delivered: frames reference the pinned
# source instead of copying it and skbuff backings are recycled, so a
# payload byte is not allocated again in transit.
benchalloc:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkEventCoreCalendar' -benchmem ./sim); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkEventCoreCalendar/ {print $$(NF-1)}'); \
	if [ -z "$$allocs" ]; then echo "benchalloc: benchmark did not run" >&2; exit 1; fi; \
	if [ "$$allocs" != "0" ]; then \
		echo "benchalloc: event core steady state allocates $$allocs allocs/op, want 0" >&2; \
		exit 1; \
	fi
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkEndpointOpen$$' -benchtime 1000x -benchmem \
		./internal/core ./internal/mxoe); \
	echo "$$out"; \
	echo "$$out" | awk -v max=65536 ' \
		/^pkg:/ { pkg = $$2 } \
		/^BenchmarkEndpointOpen/ { for (i = 2; i <= NF; i++) if ($$i == "B/op") { \
			runs++; if ($$(i-1) + 0 > max) bad = bad " " pkg "=" $$(i-1) } } \
		END { \
			if (runs != 2) { print "benchalloc: endpoint-open benchmarks reported " runs + 0 " results, want 2" > "/dev/stderr"; exit 1 } \
			if (bad != "") { print "benchalloc: endpoint open allocates B/op:" bad ", want <= " max > "/dev/stderr"; exit 1 } }'
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkPingPong1MB$$' -benchtime 20x \
		./internal/core ./internal/mxoe); \
	echo "$$out"; \
	echo "$$out" | awk -v max=262144 ' \
		/^pkg:/ { pkg = $$2 } \
		/^BenchmarkPingPong1MB/ { for (i = 2; i <= NF; i++) if ($$i == "B/simMiB") { \
			runs++; if ($$(i-1) + 0 > max) bad = bad " " pkg "=" $$(i-1) } } \
		END { \
			if (runs != 2) { print "benchalloc: ping-pong benchmarks reported " runs + 0 " results, want 2" > "/dev/stderr"; exit 1 } \
			if (bad != "") { print "benchalloc: 1 MiB ping-pong allocates B/simMiB:" bad ", want <= " max > "/dev/stderr"; exit 1 } }'

ci-fast: build vet lint fmt-check test-short

ci-full: race benchalloc
