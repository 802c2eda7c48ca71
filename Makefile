GO ?= go

.PHONY: check build vet test race bench-smoke bench perfgate ensemble-smoke fuzz-smoke crashtest lint staticcheck govulncheck serve loadtest strays

## check: everything CI runs — vet, build, race-enabled tests, bench smoke,
## perf gate, fuzz smoke, crash-recovery test, static analysis (go vet +
## gvadlint + staticcheck), and last the stray-process check
check: vet build race bench-smoke perfgate ensemble-smoke fuzz-smoke crashtest lint staticcheck strays

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the full test suite under the race detector; the parallel
## discretizer / RRA equivalence tests exercise the concurrent paths
race:
	$(GO) test -race ./...

## bench-smoke: one iteration of every pipeline-component benchmark, as a
## does-it-still-run check (not a measurement)
bench-smoke:
	$(GO) test . ./internal/discord ./internal/server -run '^$$' -bench Component -benchtime 1x

## bench: the measured component benchmarks with allocation stats, the
## configuration used for BENCH_*.json (BENCH_2.json's induce/build/density
## rows were captured with BENCHTIME=50x)
BENCHTIME ?= 5x
bench:
	$(GO) test . ./internal/discord ./internal/server -run '^$$' -bench 'Component|Extension' -benchtime $(BENCHTIME) -benchmem

## perfgate: run the kernel, induction and request-decode benchmark
## families and diff them against the checked-in baselines with
## cmd/gvperf (BENCH_7.json holds the request-decode and float-scan
## rows; its request-decode rows replace BENCH_6.json's, since the later
## file wins on a shared name). ns/op gets a deliberately loose ceiling (CI runners are not the measurement host;
## the gate catches order-of-magnitude slides, not jitter) while allocs/op
## is near-exact — machine-independent, so new allocations on a pinned
## path fail. The induction family (BENCH_2.json rows, measured at 50x)
## gets wider tolerances: at this recipe's 5x the pooled-inducer warm-up
## is amortized over only 5 iterations, which inflates allocs/op by up to
## ~16 and ns/op by ~2.4x before any regression exists.
PERFGATE_OUT ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/gvperf-bench.out
perfgate:
	$(GO) test ./internal/discord -run '^$$' -bench 'Component_DistKernel|Component_Search' \
		-benchtime 5x -benchmem > $(PERFGATE_OUT)
	$(GO) test . -run '^$$' -bench 'Component_SequiturInduce|Component_GrammarBuild|Component_DensityCurve' \
		-benchtime 5x -benchmem >> $(PERFGATE_OUT)
	$(GO) test ./internal/server -run '^$$' -bench 'Component_(RequestDecode|ParseFloat)' \
		-benchtime 5x -benchmem >> $(PERFGATE_OUT)
	$(GO) run ./cmd/gvperf -baseline BENCH_5.json -baseline BENCH_2.json -baseline BENCH_6.json \
		-baseline BENCH_7.json -tol 3.0 -alloc-tol 8 -family-tol 'induction=5.0:24' \
		-min-matches 29 -input $(PERFGATE_OUT)

## ensemble-smoke: the parameter-free ensemble's core contracts as a quick
## gate — sampler determinism/validity, the members=1 byte-equivalence to
## the multiscale curve, the typed all-invalid error, and the datasets
## validation (fused default beats the hand-tuned single-parameter run)
ensemble-smoke:
	$(GO) test ./internal/ensemble -count=1 \
		-run 'TestSampleDeterministicAndValid|TestSingleMemberMatchesMultiscale|TestAllInvalidMembersTypedError|TestEnsembleMatchesHandTunedTop1'

## fuzz-smoke: a few seconds of each native fuzz target, enough to replay
## the checked-in corpora and catch shallow regressions (long fuzzing runs
## stay manual: go test -fuzz=FuzzX -fuzztime=10m ./internal/...)
fuzz-smoke:
	$(GO) test ./internal/sax -run '^$$' -fuzz '^FuzzDiscretize$$' -fuzztime 3s
	$(GO) test ./internal/sequitur -run '^$$' -fuzz '^FuzzInduce$$' -fuzztime 3s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 3s
	$(GO) test ./internal/discord -run '^$$' -fuzz '^FuzzDistKernel$$' -fuzztime 3s -fuzzminimizetime 1x
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 3s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzParseFloat$$' -fuzztime 3s

## crashtest: the kill-recovery property test — a real gvad subprocess is
## SIGKILLed at randomized points (including mid-WAL-write via the
## GVAD_WAL_WRITE_DELAY_MS torn-write hook), restarted, and every durable
## streaming session must resume byte-identically to a never-crashed
## reference. Runs under the race detector; the child re-exec inherits the
## instrumentation.
crashtest:
	$(GO) test ./cmd/gvad -run '^TestKillRecovery$$' -count=1 -race

## serve: run the gvad anomaly-detection daemon locally (POST /v1/analyze,
## GET /healthz, GET /metrics); override the listen address with
## make serve ADDR=:9090
ADDR ?= :8080
serve:
	$(GO) run ./cmd/gvad -addr $(ADDR)

## loadtest: a ~5s multi-tenant load smoke against an in-process gvad —
## exercises the serving stack end to end (sharded cache, request
## coalescing, per-tenant budgets, batch fan-out) under real HTTP
## concurrency and fails on any transport error. A sanity gate, not a
## measurement; BENCH_3.json numbers come from the longer runs described
## in EXPERIMENTS.md.
loadtest:
	$(GO) run ./cmd/gvload -self -duration 5s -concurrency 16 \
		-tenants 8 -series 2000 -batch 4

## strays: list and fail on any gvad, gvad.test or gvload process, or go
## test -fuzz worker, still running from a go build directory (go-build*)
## or the benchmark's .bench_build/. Tests, fuzz runs and benchmark runs
## must stop every process they start; one left behind holds CPU and
## memory and skews every later measurement on the host.
strays:
	@found=$$(ps -eo pid=,args= | awk '$$2 ~ /go-build|\.bench_build\// && ($$2 ~ /\/(gvad|gvad\.test|gvload)$$/ || / -test\.fuzz/)'); \
	if [ -n "$$found" ]; then \
		echo "strays: processes left running:" >&2; \
		echo "$$found" >&2; \
		exit 1; \
	fi

## lint: the repo's own analyzers (cmd/gvadlint) — nobarego, ctxdiscipline,
## noalloc, poolrelease, lockdiscipline, walfirst, errdiscipline,
## exhaustivemode — over every package; stdlib-only, so it runs on a bare
## toolchain. See DESIGN.md §11/§16 for what each pass enforces and when a
## //gvad:ignore suppression is acceptable. The run carries a 30-second
## wall-clock budget: the CFG/dataflow passes are intraprocedural and
## near-linear by design, so a budget overrun means someone added
## super-linear work to a pass, and the assertion catches it before CI
## queues quietly absorb the cost.
LINT_BUDGET_SECONDS ?= 30
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/gvadlint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint: ${LINT_BUDGET_SECONDS}s budget, $${elapsed}s used"; \
	if [ $$elapsed -gt ${LINT_BUDGET_SECONDS} ]; then \
		echo "lint: exceeded the ${LINT_BUDGET_SECONDS}s wall-clock budget" >&2; \
		exit 1; \
	fi

## staticcheck: static analysis beyond go vet when staticcheck is
## installed; falls back to a no-op with a note so check works on a bare
## toolchain (no dependency is downloaded)
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## govulncheck: known-vulnerability scan; advisory only (CI runs it as a
## soft-fail step) and skipped entirely when the binary is absent so a
## bare toolchain still passes
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck reported findings (advisory)"; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
