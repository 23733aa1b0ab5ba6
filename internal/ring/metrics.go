package ring

import "sync/atomic"

// Package-wide wait/batch telemetry. The counters sit on paths that are
// already slow or amortized — a park is a scheduler transition, a stop-watch
// trip is a bug report, a batch op carries k items for one counter bump — so
// the per-syscall fast path (Append/Get/Ready) stays untouched: no atomic
// traffic is added to lines the replication path spins on.
//
// The counters are process-global rather than per-Log on purpose: a session
// owns dozens of rings (one syscall buffer per thread, clocks, sync
// buffers), and the admin plane wants "is this fleet parking or spinning?",
// not a per-ring breakdown. Deltas between snapshots give rates.
var (
	parkCount     atomic.Uint64 // Await calls' parks: every replication-plane wait, not only a Log's own
	stopTrips     atomic.Uint64 // parking-contract watchdog violations
	appendBatches atomic.Uint64 // AppendBatch calls (non-empty)
	appendItems   atomic.Uint64 // items published through AppendBatch
	consumeRuns   atomic.Uint64 // TryConsumeBatch calls that consumed
	consumeItems  atomic.Uint64 // items consumed through TryConsumeBatch
)

// Metrics is one snapshot of the package-wide ring counters. All values are
// cumulative since process start; readers diff snapshots for rates.
type Metrics struct {
	Parks         uint64 `json:"parks"`
	StopTrips     uint64 `json:"stop_trips"`
	AppendBatches uint64 `json:"append_batches"`
	AppendItems   uint64 `json:"append_items"`
	ConsumeRuns   uint64 `json:"consume_runs"`
	ConsumeItems  uint64 `json:"consume_items"`
}

// ReadMetrics snapshots the package-wide ring counters. The individual
// loads are not mutually atomic — the snapshot may straddle concurrent
// updates — which is fine for monitoring.
func ReadMetrics() Metrics {
	return Metrics{
		Parks:         parkCount.Load(),
		StopTrips:     stopTrips.Load(),
		AppendBatches: appendBatches.Load(),
		AppendItems:   appendItems.Load(),
		ConsumeRuns:   consumeRuns.Load(),
		ConsumeItems:  consumeItems.Load(),
	}
}
