.PHONY: all build vet lint test race bench bench-harness bench-dsp obs-bench bench-obs bench-decision bench-decision-smoke bench-capture-smoke bench-denoise bench-fleet bench-fleet-smoke cover fleet-smoke fuzz-smoke

all: build test

# Tier 1: everything compiles, vet is clean and the full test suite
# passes.
build:
	go build ./...

vet:
	go vet ./...

# Lint tier: go vet always, then a gofmt check over the whole tree
# (the nested perfbench module included): any file `gofmt -l` lists, or
# any file it cannot parse, fails the target. Then staticcheck pinned
# via `go run` so no tool install is required. The staticcheck leg
# needs the module proxy to fetch the tool; when the network is
# unreachable it is skipped with a notice instead of failing the build.
# Real findings (or any other failure) still fail the target.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1
lint: vet
	@out=$$(gofmt -l . 2>&1); st=$$?; \
	if [ $$st -ne 0 ] || [ -n "$$out" ]; then \
	    echo "lint: gofmt reports:"; printf '%s\n' "$$out"; exit 1; \
	fi; \
	echo "lint: gofmt clean"
	@out=$$(go run $(STATICCHECK) ./... 2>&1); st=$$?; \
	if [ $$st -ne 0 ] && printf '%s' "$$out" | grep -qiE 'dial tcp|no such host|connection refused|i/o timeout|network is unreachable|proxy\.golang|tls handshake timeout'; then \
	    echo "lint: staticcheck unavailable (offline); skipped"; \
	elif [ $$st -ne 0 ]; then \
	    printf '%s\n' "$$out"; exit $$st; \
	else \
	    if [ -n "$$out" ]; then printf '%s\n' "$$out"; fi; \
	    echo "lint: staticcheck clean"; \
	fi

# The nested perfbench module is vetted too: the root `go build ./...`
# never compiles it, so an API change that breaks the benchmark would
# otherwise pass.
test: build lint
	go test ./...
	cd perfbench && go vet ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-decision-smoke
	$(MAKE) bench-capture-smoke
	$(MAKE) bench-fleet-smoke

# Race tier: vet plus the short suite under the race detector. Exercises
# the FFT plan cache, the parallel run scheduler, the model cache, the
# shared metrics registry, and the fleet server's stress tests: >= 8
# device streams against one server, and >= 64 mixed clean/anomalous
# sessions with mid-stream disconnects against the sharded pool. The
# offline-vs-stream differential (including the denoise-enabled legs)
# runs explicitly so basis refactoring is raced too, and the coordinator
# failover stress (kill a backend mid-stream, assert the ring re-homes,
# the device resumes on the survivor and no pre-kill alarm is lost from
# the dead backend's journal) races the probe/redirect/drain paths. The
# coordinator's invalid-name refusal and the healthz/load-report
# agreement test rerun too: they read state that the probe loop and the
# shard goroutines write.
race:
	go vet ./...
	go test -race -short ./...
	go test -race -short -count=1 -run 'TestFleetStressConcurrentSessions|TestFleetStressShardedChurn' ./internal/fleet
	go test -race -short -count=1 -run 'TestDifferentialOfflineVsStream|TestDifferentialProvenance' ./internal/stream
	go test -race -short -count=1 -run 'TestFleetDrainJournalAndSSE|TestFleetJournalRoundTrip|TestFleetHealthzFlipsDegraded' ./internal/fleet
	go test -race -short -count=1 -run 'TestCoordFailover|TestCoordDifferentialVsDirect|TestCoordRefusesInvalidNames' ./internal/coord

# Fleet smoke run: boot a real fleet server over TCP, stream devices
# through it concurrently, drain it gracefully mid-stream.
fleet-smoke:
	go test -short -count=1 -run 'TestFleetSmoke|TestFleetDifferentialVsDirect' -v ./internal/fleet

# Every BENCH file writer, in turn. Each gated writer fails (keeping
# its checked-in baseline) when a gated metric regresses >20% against
# it, and make stops at the first failure.
bench: bench-dsp bench-decision bench-denoise bench-obs bench-fleet

# eddie-bench with the commit stamped into the binary, so every BENCH
# file's header records the revision it measured (a checkout without
# .git falls back to "unknown").
EDDIE_BENCH := go run $(if $(wildcard .git),-buildvcs=true) ./cmd/eddie-bench

# Wall-clock benchmarks of the experiment harnesses.
bench-harness:
	go test -short -bench 'Table1|Fig4' -benchtime=1x -run '^$$' .

# DSP kernel micro-benchmarks, machine-readable output (ungated).
bench-dsp:
	$(EDDIE_BENCH) -dsp-bench BENCH_dsp.json

# Decision-path + training benchmarks, machine-readable output. Rewrites
# BENCH_decision.json; fails (keeping the checked-in baseline) when the
# steady-state Observe benchmark regresses >20% against it.
bench-decision:
	$(EDDIE_BENCH) -decision-bench BENCH_decision.json

# Subspace-denoising kernel benchmarks (randomized truncated SVD,
# Gram-Schmidt orthonormalization, steady-state denoiser push).
# Rewrites BENCH_denoise.json; fails (keeping the checked-in baseline)
# when the median of five DenoisePush runs regresses >20% against it.
bench-denoise:
	$(EDDIE_BENCH) -denoise-bench BENCH_denoise.json

# Fleet-load session-density benchmark: client swarms over localhost TCP
# climb a session ladder against the sharded server, then the
# coordinator scaling rungs (1 vs 2 capped backends behind the
# consistent-hash coordinator, which must show >=1.8x sustained sessions
# inside the latency budget). Rewrites BENCH_fleet.json; fails (keeping
# the checked-in baseline) when sustained sessions, p99 frame-to-verdict
# latency (compared only when the sustained rung did not grow) or
# coordinated sessions regress >20% against it, or the coordinator
# scaling floor is missed.
bench-fleet:
	$(EDDIE_BENCH) -fleet-bench BENCH_fleet.json

# Cheap fleet-bench gate for `make test`: one tiny ungated single-node
# rung — plus a 2-backend rung through the coordinator, so redirects and
# per-backend admission are exercised on every `make test` — proves the
# harness still trains, connects, bursts and reports without paying for
# (or perturbing) the full ladder.
bench-fleet-smoke:
	go run ./cmd/eddie-bench -fleet-bench /tmp/eddie-fleet-smoke.json -fleet-smoke

# Fuzz smoke for `make test`: ten seconds of FuzzKSPresorted, which
# requires the merge and search K-S kernels to return the same D bit for
# bit in both argument orders, and to match the brute-force ECDF; then
# five seconds of FuzzBlendSorted, which requires the reference blend to
# return the same drift and reference values as its quantile-and-sort
# reference; then five seconds of FuzzBlendSummary, which requires the
# count/energy summary blend to move its ends exactly as the sample
# blend moves the sample's ends; then five seconds of FuzzRFFTPower,
# which requires the real-FFT power spectrum to match the reference
# radix-2 kernel bit for bit.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzKSPresorted$$' -fuzztime 10s ./internal/stats
	go test -run '^$$' -fuzz '^FuzzBlendSorted$$' -fuzztime 5s ./internal/stats
	go test -run '^$$' -fuzz '^FuzzBlendSummary$$' -fuzztime 5s ./internal/stats
	go test -run '^$$' -fuzz '^FuzzRFFTPower$$' -fuzztime 5s ./internal/dsp

# Cheap decision-bench gate for `make test`: the driver must build, and
# the go-test decision benchmarks — with the adapt layer's reference
# blend and the stream_drift-shaped RSVD factorization — must run (one
# iteration each) without failing; catches bit-rot in the benchmark
# harness without paying for a full timing run.
bench-decision-smoke:
	go build -o /dev/null ./cmd/eddie-bench
	go test -short -run '^$$' -bench 'BenchmarkEvalGroups|BenchmarkObserveMultiMode|BenchmarkObserveFleetModel|BenchmarkKSStatistic|BenchmarkKSRejectStatPresorted|BenchmarkBlendSorted|BenchmarkRSVDFactor' -benchtime 1x ./internal/core ./internal/stats ./internal/dsp

# Cheap capture-path benchmark run for `make test`: the simulator
# (instructions/s on the test loop and on a MiBench workload under an
# in-loop injector, both cores) and EM-channel (samples/s) benchmarks run
# one iteration each, so their harnesses cannot bit-rot unseen.
bench-capture-smoke:
	go test -short -run '^$$' -bench 'BenchmarkEngineThroughput|BenchmarkTransmit' -benchtime 1x ./internal/sim ./internal/emsim

# Observability overhead check: asserts the monitor's decision loop
# allocates nothing over whole passes with tracing/flight recording
# disabled (the default), that the always-on fleet observability plane
# (journal lifecycle append, log-histogram record, EWMA drift gauge)
# stays zero-alloc, and benchmarks the enabled paths for comparison.
obs-bench:
	go test -run TestObserveDisabledObsZeroAlloc -count=1 ./internal/core
	go test -run 'TestJournalEventZeroAlloc' -count=1 ./internal/obs
	go test -run 'TestLogHistogramRecordZeroAlloc|TestFloatGaugeEWMAZeroAlloc' -count=1 ./internal/metrics
	go test -run 'TestSLORecordZeroAlloc' -count=1 ./internal/obs
	go test -run '^$$' -bench 'BenchmarkObserve' -benchmem -benchtime 3000x ./internal/core

# Observability-plane micro-benchmarks, machine-readable output.
# Rewrites BENCH_obs.json; fails (keeping the checked-in baseline) when
# a per-frame instrument allocates, exceeds 1µs/op, or regresses >20%
# in ns/op against the baseline.
bench-obs:
	$(EDDIE_BENCH) -obs-bench BENCH_obs.json

# Per-package coverage over the short suite; fails if the hardened
# packages (internal/stream, internal/impair, internal/obs,
# internal/fleet, internal/coord, internal/metrics, internal/stats with
# the K-S kernels, internal/dsp with its linalg/denoise kernels, and
# internal/core with the STS front end and the decision path) drop
# below 80%.
cover:
	go test -short -cover ./... | tee /tmp/eddie-cover.txt
	@awk '/eddie\/internal\/(core|dsp|stream|impair|obs|fleet|coord|metrics|stats)\t/ { \
	    for (i = 1; i <= NF; i++) if ($$i ~ /%/) { pct = $$i; sub(/%.*/, "", pct); \
	        if (pct + 0 < 80) { printf "FAIL: %s coverage %s%% < 80%%\n", $$2, pct; bad = 1 } \
	        else printf "ok:   %s coverage %s%%\n", $$2, pct } } \
	    END { exit bad }' /tmp/eddie-cover.txt
