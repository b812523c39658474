GO ?= go

.PHONY: check fmt vet build test race bench bench-smoke bench-weave serve-smoke lint

## check: full gate — gofmt, vet, build, and the test suite under the
## race detector.
check: fmt vet build race

## fmt: fail when any Go file is not gofmt-formatted (lists them).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: static analysis — lslint over the spec corpus (fails on
## error-severity diagnostics; warnings tolerated) and the vetlse phase
## checker over every Go package via go vet.
lint:
	$(GO) build -o bin/lslint ./cmd/lslint
	$(GO) build -o bin/vetlse ./cmd/vetlse
	./bin/lslint specs/*.lss examples || [ $$? -eq 1 ]
	$(GO) vet -vettool=$$(pwd)/bin/vetlse ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## bench-smoke: fast CI sanity pass over the scheduler benchmarks, gated
## three ways: against the checked-in BENCH_13.json baseline (fail on >25%
## slowdown, or on allocs/op above a baselined zero-alloc row), the Auto
## default (sparse) must not be slower than levelized on the shipped
## specs/mesh.lss, and stamping a session from a compiled Program must
## not cost more than compiling it (benchguard -notslower). Three samples per benchmark;
## benchguard compares the min of them, so one noisy sample on a shared
## host doesn't fail the gate.
bench-smoke:
	$(GO) test -bench='BenchmarkLevelized|BenchmarkSparse|BenchmarkTyped|BenchmarkNewSimFromProgram|BenchmarkSessionStampHTTP|BenchmarkDataflow|BenchmarkPruned|BenchmarkWoven|BenchmarkSpecMesh' -benchtime=200x -benchmem -count=3 -run=^$$ . | tee bench-smoke.out
	$(GO) run ./tools/benchguard -baseline BENCH_13.json \
		-notslower 'BenchmarkSpecMesh/sparse<=BenchmarkSpecMesh/levelized' \
		-notslower 'BenchmarkNewSimFromProgram/stamp<=BenchmarkNewSimFromProgram/compile' bench-smoke.out
	@rm -f bench-smoke.out

## bench-weave: woven-scheduler acceptance gate — the default-control
## pipeline and acyclic grid under interpreted levelized vs woven, gated
## two ways: against the BENCH_13.json baseline, and the woven rows must
## never be slower than their levelized twins from the same run
## (benchguard -notslower; the issue target is >=2x, the baseline pins
## ~130x, and the comparative gate keeps the direction honest on any
## host speed).
bench-weave:
	$(GO) test -bench='BenchmarkWoven' -benchtime=200x -benchmem -count=3 -run=^$$ . | tee bench-weave.out
	$(GO) run ./tools/benchguard -baseline BENCH_13.json \
		-notslower 'BenchmarkWovenPipeline/woven<=BenchmarkWovenPipeline/levelized' \
		-notslower 'BenchmarkWovenMesh/woven<=BenchmarkWovenMesh/levelized' bench-weave.out
	@rm -f bench-weave.out

## serve-smoke: end-to-end daemon smoke — build lsd, spawn it as a real
## process, drive submit/stamp/run/observe/snapshot/restore over HTTP,
## then SIGINT it and require a clean shutdown.
serve-smoke:
	$(GO) build -o bin/lsd ./cmd/lsd
	$(GO) run ./tools/servesmoke -lsd bin/lsd
