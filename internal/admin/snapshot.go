package admin

import (
	"time"

	"repro/internal/fleet"
	"repro/internal/futex"
	"repro/internal/ring"
	"repro/internal/telemetry"
)

// Snapshot is the wire form of fleet.Snapshot: the same data with the
// non-serializable parts flattened — Stats reduced to numbers (its
// histogram becomes quantiles), Quarantine's Panic rendered to a string
// and its Trace reduced to a presence bit (a trace can be megabytes; the
// admin plane reports it, forensic replay consumes it in-process). The
// /api/snapshot handler encodes it; a client decodes the same type.
type Snapshot struct {
	Taken       time.Time               `json:"taken"`
	Stats       Stats                   `json:"stats"`
	Members     []fleet.MemberSnapshot  `json:"members"`
	Telemetry   *telemetry.Snapshot     `json:"telemetry,omitempty"`
	Ring        ring.Metrics            `json:"ring"`
	Futex       futex.Metrics           `json:"futex"`
	Quarantined []QuarantineInfo        `json:"quarantined,omitempty"`
	Faults      telemetry.FaultSnapshot `json:"faults"`
}

// Stats is the wire form of fleet.Stats.
type Stats struct {
	Served        uint64  `json:"served"`
	Errors        uint64  `json:"errors"`
	Rejected      uint64  `json:"rejected"`
	Divergences   uint64  `json:"divergences"`
	Deadlocks     uint64  `json:"deadlocks"`
	Crashes       uint64  `json:"crashes"`
	Recycled      uint64  `json:"recycled"`
	Reloads       uint64  `json:"reloads"`
	Healthy       int     `json:"healthy"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Throughput    float64 `json:"throughput"`
	LatencyCount  uint64  `json:"latency_count"`
	LatencyMeanNs float64 `json:"latency_mean_ns"`
	LatencyP50Ns  uint64  `json:"latency_p50_ns"`
	LatencyP90Ns  uint64  `json:"latency_p90_ns"`
	LatencyP99Ns  uint64  `json:"latency_p99_ns"`
	LatencyMaxNs  uint64  `json:"latency_max_ns"`
}

// QuarantineInfo is the wire form of fleet.Quarantine.
type QuarantineInfo struct {
	Slot     int                        `json:"slot"`
	Gen      int                        `json:"gen"`
	Seed     int64                      `json:"seed"`
	Kind     string                     `json:"kind"` // "divergence", "deadlock" or "crash"
	Reason   string                     `json:"reason"`
	Served   uint64                     `json:"served"`
	Uptime   time.Duration              `json:"uptime_ns"`
	Syscalls uint64                     `json:"syscalls"`
	SyncOps  uint64                     `json:"sync_ops"`
	HasTrace bool                       `json:"has_trace"`
	Flight   [][]telemetry.FlightRecord `json:"flight,omitempty"`
	When     time.Time                  `json:"when"`
}

// SnapshotJSON flattens a fleet.Snapshot into its wire form.
func SnapshotJSON(s fleet.Snapshot) Snapshot {
	out := Snapshot{
		Taken:     s.Taken,
		Members:   s.Members,
		Telemetry: s.Telemetry,
		Ring:      s.Ring,
		Futex:     s.Futex,
		Faults:    s.Faults,
		Stats: Stats{
			Served:        s.Stats.Served,
			Errors:        s.Stats.Errors,
			Rejected:      s.Stats.Rejected,
			Divergences:   s.Stats.Divergences,
			Deadlocks:     s.Stats.Deadlocks,
			Crashes:       s.Stats.Crashes,
			Recycled:      s.Stats.Recycled,
			Reloads:       s.Stats.Reloads,
			Healthy:       s.Stats.Healthy,
			UptimeSeconds: s.Stats.Uptime.Seconds(),
			Throughput:    s.Stats.Throughput(),
			LatencyCount:  s.Stats.Latency.Count(),
			LatencyMeanNs: s.Stats.Latency.MeanValue(),
			LatencyP50Ns:  s.Stats.Latency.Quantile(0.50),
			LatencyP90Ns:  s.Stats.Latency.Quantile(0.90),
			LatencyP99Ns:  s.Stats.Latency.Quantile(0.99),
			LatencyMaxNs:  s.Stats.Latency.MaxValue(),
		},
	}
	for _, q := range s.Quarantined {
		out.Quarantined = append(out.Quarantined, QuarantineInfo{
			Slot: q.Slot, Gen: q.Gen, Seed: q.Seed,
			Kind: q.Kind(), Reason: q.Reason(),
			Served: q.Served, Uptime: q.Uptime,
			Syscalls: q.Syscalls, SyncOps: q.SyncOps,
			HasTrace: q.Trace != nil,
			Flight:   q.Flight,
			When:     q.When,
		})
	}
	return out
}
