GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet lint satlint proof-check build test race race-parallel fuzz bench bench-json bench-smoke bench-harness equisat ops-smoke serve-smoke load-smoke race-serve

## check: the full CI gate — vet, lint, proof replay, build, the
## race-enabled test suite, and a short fuzz smoke run of every native
## fuzz target.
check: vet lint proof-check build race fuzz

vet:
	$(GO) vet ./...

## lint: all static analysis — go vet plus the repo's own satlint checks
## (nilguard, metricreg, faultsite, hotpath, atomicalign, and the §15
## concurrency contracts: lockorder, goroutine, ctxflow, blockhold)
## (nil-safe instruments, the DESIGN.md metric registry, fault sites,
## allocation-free hot paths, 64-bit atomic alignment).
lint: vet satlint

satlint:
	$(GO) run ./cmd/satlint ./...

## proof-check: the verdict-observability gate — the DRAT-modulo-PB
## checker's own tests, every seeded corpus UNSAT replayed through it,
## the core-extraction minimality checks, the solvesat DRAT round trip,
## the Table-1/Table-2 optimality-certificate acceptance tests, the
## warm-started search's certificate and fallback tests, and the
## exhaustive-oracle differential check of generated specs.
proof-check:
	$(GO) test -count 1 ./internal/proof
	$(GO) test -count 1 -run 'Proof|Certified|SeedCorpus|Explain|WarmStart|OptimumMatchesExhaustive' \
		./internal/sat ./internal/opt ./internal/core \
		./internal/experiments ./cmd/solvesat ./cmd/allocate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: smoke-run the native fuzz targets for $(FUZZTIME) each: the
## parser-hardening targets and FuzzOptimum, the exhaustive-oracle
## differential check over generated specs. Longer campaigns:
## go test -fuzz FuzzParseDIMACS -fuzztime 10m ./internal/sat
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseDIMACS$$' -fuzztime $(FUZZTIME) ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzParseOPB$$' -fuzztime $(FUZZTIME) ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpec$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOptimum$$' -fuzztime $(FUZZTIME) ./internal/core

## race-parallel: the clause-sharing portfolio's concurrency tests under the
## race detector, runnable on their own (CI gives them a dedicated step):
## the sat workers, the binary search over them, and core's wiring.
race-parallel:
	$(GO) test -race -count 1 -run Parallel ./internal/sat ./internal/opt ./internal/core

## bench: the solver and solver-intake micro-benchmarks (hooks disabled),
## for regression spotting.
bench:
	$(GO) test -bench . -benchtime 2x -run '^$$' ./internal/sat ./internal/bv

## bench-json: run the top-level paper benchmarks once and write a dated
## machine-readable data point for the performance trajectory. The newest
## existing BENCH_*.json (excluding today's) is the baseline for the
## derived literals_reduction_vs_baseline fields.
bench-json:
	$(GO) test -bench . -benchtime 1x -run '^$$' -timeout 60m . \
		| $(GO) run ./internal/tools/bench2json \
			-baseline "$$(ls BENCH_*.json 2>/dev/null | grep -v BENCH_$$(date +%Y%m%d).json | sort | tail -1)" \
			-o BENCH_$$(date +%Y%m%d).json

## bench-smoke: one-iteration benchmark pass piped through bench2json — keeps
## both the benchmarks and the JSON converter from rotting, without timing.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' -timeout 60m . \
		| $(GO) run ./internal/tools/bench2json > /dev/null

## bench-harness: the end-to-end benchmark's own tests — its percentile
## unit test and a short smoke run of every workload. bench/ is a Go
## module of its own, so the root module's go test ./... never reaches it,
## and an API change that breaks the harness would otherwise go unnoticed.
bench-harness:
	cd bench && $(GO) test -count 1 ./...

## equisat: the encoder against ground truth, under the race detector —
## every hand-built and fuzz-seeded formula's encoding must agree with
## direct evaluation on every assignment, every constant-bound PB row
## must admit exactly the enumerated values, the gate cache's accounting
## must balance, and the Table-1/Table-2 specs must reach their pinned
## verdicts and optimal costs.
equisat:
	$(GO) test -race -count 1 -run 'Equisat|HashingReduces|ConstBound' ./internal/bv ./internal/opt

## ops-smoke: end-to-end check of the ops HTTP listener — builds the real
## allocate binary, scrapes /healthz, /metrics and /progress against a
## live process, and validates the Prometheus exposition.
ops-smoke:
	$(GO) test -run 'TestOps' -count 1 -v ./cmd/allocate

## serve-smoke: end-to-end crash-recovery check of the allocation daemon —
## builds the real allocd and workgen binaries, submits a workgen -count
## corpus over HTTP, kill -9s the daemon mid-flight, restarts it on the
## same data dir, and asserts the journal replay finishes every job, the
## cache survives, and SIGTERM drains cleanly.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count 1 -v ./cmd/allocd

## load-smoke: end-to-end check of the load generator and the tenant
## observability surface — builds the real allocd, drives ~100 jobs
## across two tenants through loadgen's open loop, and asserts the
## report's per-tenant percentiles plus the daemon's tenant-labeled
## /metrics series and /jobs/summary view.
load-smoke:
	$(GO) test -run 'TestLoadSmoke' -count 1 -v ./cmd/loadgen

## race-serve: the allocation service's concurrency suite under the race
## detector — including the chaos test (hundreds of concurrent jobs with
## faults firing at every serve site) and the two-stage signal handler —
## plus every other package whose locks and spawns carry §15 annotations
## (obs, flightrec, faultinject; metrics has its own CI race step).
race-serve:
	$(GO) test -race -count 1 ./internal/serve ./internal/cli ./internal/obs ./internal/flightrec ./internal/faultinject
