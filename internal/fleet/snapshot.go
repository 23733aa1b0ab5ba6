package fleet

import (
	"time"

	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/telemetry"
)

// MemberSnapshot extends the dispatch-level MemberInfo with one member's
// kernel and telemetry view: its process table (vpids, states, descriptor
// counts), the master variant's monitored syscall total, and the live
// per-variant flight tails.
type MemberSnapshot struct {
	MemberInfo
	// Epoch and EpochSeed are the member program's live worker generation
	// and its diversity-refresh seed, parsed from the epoch file the
	// prefork server publishes inside its kernel (EpochFile).
	// Both stay zero for programs that do not publish one.
	Epoch     int   `json:"epoch,omitempty"`
	EpochSeed int64 `json:"epoch_seed,omitempty"`
	// Syscalls is the master variant's monitored syscall count so far.
	Syscalls uint64 `json:"syscalls"`
	// Procs is the member kernel's process table.
	Procs []kernel.ProcInfo `json:"procs,omitempty"`
	// Flight is each variant's current flight-recorder tail (oldest
	// first). For a session killed by divergence this is the frozen tail.
	Flight [][]telemetry.FlightRecord `json:"flight,omitempty"`
}

// Snapshot is the fleet-wide admin view: aggregate stats, every member's
// detail, the merged syscall matrix, the process-wide ring/futex wait
// counters, and the quarantine log. One Snapshot call is what backs one
// /metrics or /statusz render.
type Snapshot struct {
	Taken       time.Time           `json:"taken"`
	Stats       Stats               `json:"stats"`
	Members     []MemberSnapshot    `json:"members"`
	Telemetry   *telemetry.Snapshot `json:"telemetry,omitempty"`
	Ring        ring.Metrics        `json:"ring"`
	Futex       futex.Metrics       `json:"futex"`
	Quarantined []Quarantine        `json:"quarantined,omitempty"`
	// Faults sums the chaos plane's injected-fault counters over every
	// live member (all-zero when no fault plan is installed).
	Faults telemetry.FaultSnapshot `json:"faults"`
}

// Snapshot assembles the fleet-wide admin view. It never blocks serving:
// every source is either an atomic counter, a lock the hot path does not
// hold, or a lock-free telemetry snapshot.
func (f *Fleet) Snapshot() Snapshot {
	s := Snapshot{
		Taken:       time.Now(),
		Stats:       f.Stats(),
		Ring:        ring.ReadMetrics(),
		Futex:       futex.ReadMetrics(),
		Quarantined: f.Quarantined(),
	}
	for _, m := range f.members() {
		ms := MemberSnapshot{
			MemberInfo: m.info(),
			Syscalls:   m.sess.Monitor().Syscalls(0),
			Procs:      m.sess.Kernel().Snapshot(),
		}
		if b, ok := m.sess.Kernel().ReadFile(EpochFile); ok {
			if e, seed, _, valid := ParseEpochState(b); valid {
				ms.Epoch, ms.EpochSeed = e, seed
			}
		}
		if tel := m.sess.Telemetry(); tel != nil {
			ms.Flight = m.sess.Monitor().FlightTail()
			snap := tel.Matrix.Snapshot()
			if s.Telemetry == nil {
				s.Telemetry = &snap
			} else {
				s.Telemetry.Merge(snap)
			}
			s.Faults.Merge(tel.Faults.Snapshot())
		}
		s.Members = append(s.Members, ms)
	}
	return s
}
