GO ?= go

.PHONY: build test race benchmark bugbench vet lint-waits

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint-waits holds the replication plane's wait protocol to its one copy
# (ring.Await / ring.Backoff; DESIGN §12), the guest futex to its one
# sleep (futex.Waiter.Sleep), and the kernel's sleeps to their named
# functions and one interrupt predicate (DESIGN §2.4).
lint-waits:
	scripts/lint-waits.sh

# bugbench runs the concurrency-bug corpus under the race detector: every
# annotated entry (internal/bugbench) must reach its annotated verdict —
# deadlock with the expected cycle, clean, or divergence — across 5 seeds,
# and the armed detector must report nothing on real workload shapes.
bugbench:
	$(GO) test -race -count=1 ./internal/bugbench/

# benchmark is the repo's one steady-state benchmark (BENCHMARK.json): four
# workloads, end-to-end metrics, a per-layer cost ledger under --trace.
benchmark:
	bash benchmark/run.sh
