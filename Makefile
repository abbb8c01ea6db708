GO ?= go

.PHONY: all build test bench bench-micro bench-store bench-full bench-smoke bench-e2e loc vet race ci fault-matrix fault-matrix-net chaos trace-demo clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench runs the driver benchmarks and emits per-superstep BENCH_*.json
# profiles via the instrumented CLI (-stats-json); CI archives the JSON.
# The traced run is a distributed TCP-loopback paper query with a dropped
# exchange injected so every transport bucket (serialize/wire/worker-compute/
# retry) is nonzero in the archived TRACE_pagerank.json timeline.
bench: bench-micro
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/driver/
	$(GO) run ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-online q4 -stats-json BENCH_pagerank.json
	$(GO) run ./cmd/ariadne run -analytic sssp -dataset IN-04 -capture full \
		-stats-json BENCH_sssp.json
	$(GO) run ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms \
		-online q4 -faults "net.send:mode=drop:part=1:ss=2:times=1" \
		-trace-out TRACE_pagerank.json -stats-json BENCH_trace_pagerank.json

# bench-micro runs the barrier, spill-pipeline, and query-evaluation
# microbenchmarks and feeds them through cmd/benchjson, which writes
# BENCH_micro.json and fails on a regression of the hardware-independent
# ratios (parallel/sequential barrier-phase time over the same inbox.build);
# the write-behind spill pipeline and the layered full run are recorded ungated; the
# frame-encode, disabled-span, steady-state online-observe and warm fact-emit
# paths must not allocate at all. The
# committed BENCH_micro.json is the single-core container baseline
# (taskset -c 0); CI archives the fresh one.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkBarrier|BenchmarkEmitProv' -benchmem -count 1 \
		./internal/engine/ > bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkSpillPipeline' -benchmem -count 1 \
		./internal/provenance/ >> bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkLayeredEval$$|BenchmarkOnlineObserve$$' -benchmem -count 1 \
		./internal/driver/ >> bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkTransportRun|BenchmarkTraceRun|BenchmarkWireFrame' -benchmem -count 1 \
		./internal/transport/ >> bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkSpanDisabled' -benchmem -count 1 \
		./internal/obs/ >> bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkStoreFormat' -benchmem -count 1 \
		./internal/provenance/ >> bench-micro.out
	$(GO) test -run '^$$' -bench 'BenchmarkLayeredReplay' -benchmem -count 1 \
		./internal/driver/ >> bench-micro.out
	$(GO) run ./cmd/benchjson -out BENCH_micro.json \
		-max-transport-overhead 1.5 < bench-micro.out
	rm -f bench-micro.out

# bench-store runs just the provenance-storage benchmarks — spill pipeline,
# on-disk density, projected-vs-unprojected layered replay — and gates
# layered_replay_facts_s via cmd/benchjson -expect, writing BENCH_store.json. Faster than bench-micro when iterating on
# the layer file format; CI runs it in the bench job and archives the JSON.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkSpillPipeline|BenchmarkStoreFormat' -benchmem -count 1 \
		./internal/provenance/ > bench-store.out
	$(GO) test -run '^$$' -bench 'BenchmarkLayeredReplay' -benchmem -count 1 \
		./internal/driver/ >> bench-store.out
	$(GO) run ./cmd/benchjson -out BENCH_store.json \
		-expect layered_replay_facts_s \
		< bench-store.out
	rm -f bench-store.out

bench-full:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the repo benchmark's own smoke test (benchmark/ is a
# separate module, so `go test ./...` at the root never reaches it): every
# workload of BENCHMARK.json once, with its output checks.
bench-smoke:
	cd benchmark && $(GO) test ./...

# bench-e2e runs the repo benchmark as BENCHMARK.json declares it (every
# workload, --seconds 8, untraced) and appends one entry — commit, per-workload
# job_s / setup_s / failed and the exact work counts — to BENCH_e2e.json, the
# committed end-to-end trajectory (ROADMAP 1a). COMMIT labels the entry.
E2E_WORKLOADS = bare.pagerank online.q4.pagerank online.q6.sssp online.q7.als \
	capture.full.pagerank layered.q6.sssp tcp.comb.sssp
COMMIT ?= $(shell git describe --always --dirty)
bench-e2e:
	for w in $(E2E_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seconds 8 || exit 1; \
	done | $(GO) run ./cmd/benchjson -e2e -commit "$(COMMIT)" -out BENCH_e2e.json

# loc prints the non-test Go lines of the packages ROADMAP aim 2 tracks (one
# PQL evaluator, one message barrier, one layer representation, one exchange
# mode, one telemetry model; net-negative line counts), then the total of
# non-test Go outside benchmark/; CI records it per run.
loc:
	@for p in internal/pql/eval internal/pql/analysis internal/driver internal/engine internal/transport internal/provenance internal/capture internal/obs; do \
		printf '%-22s %s\n' $$p "$$(find $$p -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done
	@printf '%-22s %s\n' total "$$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"

# fault-matrix exercises the partition-targeted fault scenarios end to end
# under the race detector: the supervision/fault test suites, then three CLI
# runs — an injected partition panic recovered by retry, a hung partition
# cancelled by its deadline, and repeated capture failures shedding into
# degraded mode. Each CLI run writes its supervision trace and capture gaps
# to FAULT_*.json; CI archives the JSON.
fault-matrix:
	$(GO) test -race -run 'Supervis|Degrade|HitWait|Matrix|CaptureFault' \
		./internal/supervise/ ./internal/fault/ ./internal/engine/ ./internal/capture/ .
	$(GO) run -race ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-supervise -faults "compute:mode=panic:ss=3:part=0" \
		-trace-buf 1024 -stats-json FAULT_panic.json
	$(GO) run -race ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-supervise -partition-deadline 250ms -faults "compute:mode=hang:ss=4:part=0" \
		-trace-buf 1024 -stats-json FAULT_hang.json
	$(GO) run -race ./cmd/ariadne run -analytic sssp -dataset IN-04 -capture full \
		-supervise -degrade-capture 2 -faults "capture:part=0:times=3" \
		-trace-buf 1024 -stats-json FAULT_degrade.json

# fault-matrix-net exercises the network fault sites end to end under the
# race detector: the transport test suite (wire codec, TCP differential,
# deterministic net fault matrix including the peer-mesh scenarios, worker-
# kill recovery, heartbeats), then four distributed CLI runs over spawned
# TCP-loopback workers — a dropped exchange recovered by retransmit, a
# connection reset recovered by reconnect, an unreachable partition
# recovered by local fallback with its capture shed into a queryable gap,
# and a worker-to-worker fragment dropped on the peer mesh (injected
# worker-side via -worker-faults) recovered by the master-relay fallback.
# Each CLI run writes its trace and capture gaps to FAULT_net_*.json; CI
# archives the JSON.
fault-matrix-net:
	$(GO) test -race -run 'Transport|Net|Wire|WorkerKilled|Heartbeat|Handshake' \
		./internal/transport/ ./internal/fault/ .
	$(GO) run -race ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms \
		-faults "net.send:mode=drop:part=1:ss=2" \
		-trace-buf 1024 -stats-json FAULT_net_drop.json
	$(GO) run -race ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms \
		-faults "net.send:mode=reset:part=1:ss=3" \
		-trace-buf 1024 -stats-json FAULT_net_reset.json
	$(GO) run -race ./cmd/ariadne run -analytic sssp -dataset IN-04 -capture full \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms -max-retries 1 \
		-faults "net.send:mode=drop:part=1:times=1048576" \
		-trace-buf 1024 -stats-json FAULT_net_fallback.json
	$(GO) run -race ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms \
		-worker-faults "peer.send:mode=drop:part=1:ss=2:times=1" \
		-trace-buf 1024 -stats-json FAULT_net_peer.json

# chaos runs the failover test suites under the race detector, then the
# seeded chaos-soak harness: three seeds, three workers each, a
# deterministic schedule of worker kills/restarts plus link delays/resets
# played out at superstep barriers — seed 3 with -kill-mid, which arms each
# kill to land mid-delta-stream and checkpoints the run so recovery
# re-hydrates worker-resident state from the last checkpoint blob plus
# replayed supersteps. Each soak asserts the disturbed run is bit-identical
# to an undisturbed reference — values, provenance layers, zero capture
# gaps — and that the failover counters account for the schedule, writing
# the verdict to CHAOS_<seed>.json; CI archives the JSON. A failing seed
# replays exactly: the schedule is a pure function of the seed.
chaos:
	$(GO) test -race -run 'Failover|WorkerKilled|AllWorkers|Drain|Chaos|ReplyCache|ReplyDedup|PoolState' \
		./internal/transport/ ./internal/fault/ .
	$(GO) run -race ./cmd/chaos -seed 1 -workers 3 -out CHAOS_1.json
	$(GO) run -race ./cmd/chaos -seed 2 -workers 3 -out CHAOS_2.json
	$(GO) run -race ./cmd/chaos -seed 3 -workers 3 -kill-mid -out CHAOS_3.json

# trace-demo produces a span timeline you can open in Perfetto
# (https://ui.perfetto.dev) or chrome://tracing: a distributed PageRank run
# over two spawned TCP-loopback workers with one exchange dropped at
# superstep 2, so the retry/backoff bucket shows up in the timeline. See
# README "Tracing a distributed run".
trace-demo:
	$(GO) run ./cmd/ariadne run -analytic pagerank -dataset IN-04 -supersteps 10 \
		-transport tcp -workers 2 -partitions 4 -net-deadline 250ms \
		-capture full -faults "net.send:mode=drop:part=1:ss=2:times=1" \
		-trace-out TRACE_demo.json -stats-json TRACE_demo_stats.json
	@echo "open TRACE_demo.json in https://ui.perfetto.dev or chrome://tracing"

# ci is what .github/workflows/ci.yml runs.
ci: vet race

clean:
	$(GO) clean ./...
