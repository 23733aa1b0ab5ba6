package admin

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/telemetry"
)

// handleStatusz serves Report over one snapshot.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(Report(s.fleet.Snapshot())))
}

// Report renders the fleet's human-facing health report from one snapshot:
// the stats table, every member's session and process-table detail, the
// merged syscall matrix, the chaos and wait counters, and the quarantine
// log with each record's flight-recorder tails. It is the one renderer of
// fleet state: /statusz serves it, mvee-serve prints it at the end of a
// run, and mvee-top fetches it.
func Report(snap fleet.Snapshot) string {
	var b strings.Builder

	fmt.Fprintf(&b, "== fleet ==\n%s\n", fleet.StatsTable(snap.Stats))

	fmt.Fprintf(&b, "\n== members ==\n")
	for _, m := range snap.Members {
		state := "healthy"
		if !m.Healthy {
			state = "down"
		}
		fmt.Fprintf(&b, "slot %d gen %d seed %d epoch %d/%d: %s, inflight %d, served %d, syscalls %d\n",
			m.Slot, m.Gen, m.Seed, m.Epoch, m.EpochSeed, state, m.Inflight, m.Served, m.Syscalls)
		for _, p := range m.Procs {
			fmt.Fprintf(&b, "  pid %-4d vpid %-3d parent %-3d %-8s threads %d fds %d\n",
				p.Pid, p.Vpid, p.Parent, p.State, p.Threads, p.OpenFDs)
		}
	}

	if snap.Telemetry != nil {
		fmt.Fprintf(&b, "\n== syscall matrix (merged) ==\n%s", matrixTable(snap.Telemetry))
	}

	if snap.Faults.Total() > 0 {
		fmt.Fprintf(&b, "\n== chaos ==\nfaults injected: %d (latency %d, error %d, timeout %d, short %d)\n",
			snap.Faults.Total(), snap.Faults.Latency, snap.Faults.Errors,
			snap.Faults.Timeouts, snap.Faults.Shorts)
	}

	fmt.Fprintf(&b, "\n== waits ==\nring: parks %d, stop trips %d, append batches %d (%d items), consume runs %d (%d items)\nfutex: parks %d, wakes %d\n",
		snap.Ring.Parks, snap.Ring.StopTrips, snap.Ring.AppendBatches, snap.Ring.AppendItems,
		snap.Ring.ConsumeRuns, snap.Ring.ConsumeItems, snap.Futex.Parks, snap.Futex.Wakes)

	if len(snap.Quarantined) > 0 {
		fmt.Fprintf(&b, "\n== quarantined sessions ==\n")
		for i, q := range snap.Quarantined {
			fmt.Fprintf(&b, "[%d] slot %d gen %d seed %d at %s\n    %s\n    served %d over %v (%d syscalls, %d sync ops)\n",
				i, q.Slot, q.Gen, q.Seed, q.When.Format(time.RFC3339), q.Reason(),
				q.Served, q.Uptime.Round(time.Microsecond), q.Syscalls, q.SyncOps)
			if q.Trace != nil {
				fmt.Fprintf(&b, "    forensic trace captured (replayable offline)\n")
			}
			for v, tail := range q.Flight {
				fmt.Fprintf(&b, "    variant %d flight tail (%d records):\n", v, len(tail))
				for _, r := range tail {
					fmt.Fprintf(&b, "      %s\n", r)
				}
			}
		}
	}
	return b.String()
}

// matrixTable renders the merged syscall matrix as an aligned text table:
// one row per sysno with activity, count and sampled p50/p99 latency per
// variant.
func matrixTable(t *telemetry.Snapshot) string {
	if t == nil || len(t.Cells) == 0 {
		return "(no telemetry)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "sysno")
	for v := range t.Cells {
		fmt.Fprintf(&b, " %12s %9s %9s", fmt.Sprintf("v%d count", v), "p50", "p99")
	}
	b.WriteByte('\n')
	width := 0
	for _, row := range t.Cells {
		if len(row) > width {
			width = len(row)
		}
	}
	for nr := 0; nr < width; nr++ {
		active := false
		for _, row := range t.Cells {
			if nr < len(row) && row[nr].Count > 0 {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		fmt.Fprintf(&b, "%-14s", kernel.Sysno(nr).String())
		for _, row := range t.Cells {
			var c telemetry.Cell
			if nr < len(row) {
				c = row[nr]
			}
			p50, p99 := "-", "-"
			if c.LatN > 0 {
				p50 = time.Duration(c.LatP50).String()
				p99 = time.Duration(c.LatP99).String()
			}
			fmt.Fprintf(&b, " %12d %9s %9s", c.Count, p50, p99)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
