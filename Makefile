GO ?= go

# bench-smoke pipes go test through awk; without pipefail a crashed
# benchmark run would be masked by awk's zero exit.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build test race bench bench-smoke benchmark bugbench vet lint-waits

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint-waits holds the replication plane's wait protocol to its one copy
# (ring.Await / ring.Backoff; DESIGN §12) and the kernel's sleeps to their
# named functions and one interrupt predicate (DESIGN §2.4).
lint-waits:
	scripts/lint-waits.sh

# bugbench runs the concurrency-bug corpus under the race detector: every
# annotated entry (internal/bugbench) must reach its annotated verdict —
# deadlock with the expected cycle, clean, or divergence — across 5 seeds,
# and the armed detector must report nothing on real workload shapes.
bugbench:
	$(GO) test -race -count=1 ./internal/bugbench/

# bench records the build/alloc smoke trajectory into BENCH_<n>.json
# (BENCH_OUT; see scripts/bench.sh). Latency evidence comes from
# `make benchmark`, not from these 3-iteration cells.
bench:
	scripts/bench.sh

# benchmark is the repo's one steady-state benchmark (BENCHMARK.json): four
# workloads, end-to-end metrics, a per-layer cost ledger under --trace.
benchmark:
	bash benchmark/run.sh

# bench-smoke is the CI gate, three runs and no JSON rewrite. The first two
# prove the agent and serving benchmarks, and internal/core's
# BenchmarkSyncThenSyscall (the sync-ops-then-a-syscall shape benchmark/ cannot
# carry yet), still build and run (one iteration);
# EventedKeepAlive self-gates the replicated records/request quotient (< 4).
# The last holds the alloc invariants behind one awk gate — 0 allocs/op on
# every cell of ReplicationHotPath, ChaosOverhead (the chaos seam must be
# free when no fault fires), ConnectPath (the recv lands in a reusable
# scratch buffer via Call.Buf) and DeadlockDetectorOverhead — at 2000
# iterations, so steady state is measured and the armed-miss chaos cell
# actually exercises the injector consult, not just the first call.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAgentMicro|BenchmarkWallClockAssignment|BenchmarkPollServer|BenchmarkEventedKeepAlive' -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkSyncThenSyscall' -benchtime=1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkChaosOverhead|BenchmarkConnectPath|BenchmarkDeadlockDetectorOverhead|BenchmarkReplicationHotPath' -benchmem -benchtime=2000x . | \
	awk '{ print } / allocs\/op/ { if ($$(NF-1) != 0) bad = 1 } END { exit bad }'
