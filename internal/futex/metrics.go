package futex

import "sync/atomic"

// Package-wide park/wake telemetry. Park and the broadcast half of Wake are
// already scheduler-weight slow paths, so one more uncontended atomic add
// disappears in their cost; the no-waiter Wake fast path — one load per
// publish on the replication path — is deliberately NOT counted, so the
// hot path stays exactly as cheap as before. The counters therefore read
// as "how often did waits actually sleep / how often did a publish have to
// broadcast", which is the signal the admin plane wants: a healthy lockstep
// fleet spins and pauses; sustained park growth means a variant is lagging.
var (
	parkEvents atomic.Uint64 // Park calls (monitor clock waits, ring waits, wall clocks, guest futexes)
	wakeEvents atomic.Uint64 // Wake calls that found waiters and broadcast
)

// Metrics is one snapshot of the package-wide parker counters, cumulative
// since process start.
type Metrics struct {
	Parks uint64 `json:"parks"`
	Wakes uint64 `json:"wakes"`
}

// ReadMetrics snapshots the package-wide parker counters.
func ReadMetrics() Metrics {
	return Metrics{Parks: parkEvents.Load(), Wakes: wakeEvents.Load()}
}
