package admin

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/kernel"
)

// handleMetrics renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), hand-rolled — the repo takes no external
// dependencies, and the format is lines of `name{labels} value`.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.fleet.Snapshot()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("mvee_requests_served_total", "Requests answered successfully.", snap.Stats.Served)
	counter("mvee_requests_errors_total", "Requests that failed (divergence kills included).", snap.Stats.Errors)
	counter("mvee_requests_rejected_total", "Requests rejected by gateway backpressure.", snap.Stats.Rejected)
	counter("mvee_divergences_total", "Sessions quarantined because their variants diverged.", snap.Stats.Divergences)
	counter("mvee_deadlocks_total", "Sessions quarantined because the deadlock detector proved them wedged.", snap.Stats.Deadlocks)
	counter("mvee_crashes_total", "Sessions quarantined because the program crashed.", snap.Stats.Crashes)
	counter("mvee_sessions_recycled_total", "Replacement sessions spawned.", snap.Stats.Recycled)
	counter("mvee_reloads_total", "Hot-restart sweeps triggered through the fleet.", snap.Stats.Reloads)
	gauge("mvee_members_healthy", "Members currently accepting dispatch.", float64(snap.Stats.Healthy))
	gauge("mvee_uptime_seconds", "Fleet uptime.", snap.Stats.Uptime.Seconds())

	fmt.Fprintf(&b, "# HELP mvee_request_latency_ns Gateway request latency quantiles.\n# TYPE mvee_request_latency_ns gauge\n")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(&b, "mvee_request_latency_ns{quantile=%q} %d\n", fmt.Sprintf("%g", q), snap.Stats.Latency.Quantile(q))
	}

	// The syscall matrix: one counter series per (variant, sysno) cell
	// with a nonzero count, and sampled latency quantiles alongside.
	fmt.Fprintf(&b, "# HELP mvee_syscalls_total Monitored syscalls by variant and sysno (merged across members).\n# TYPE mvee_syscalls_total counter\n")
	if snap.Telemetry != nil {
		for v, row := range snap.Telemetry.Cells {
			for nr, cell := range row {
				if cell.Count == 0 {
					continue
				}
				fmt.Fprintf(&b, "mvee_syscalls_total{variant=\"%d\",sysno=%q} %d\n",
					v, kernel.Sysno(nr).String(), cell.Count)
			}
		}
		fmt.Fprintf(&b, "# HELP mvee_syscall_latency_ns Sampled syscall dispatch latency by variant and sysno.\n# TYPE mvee_syscall_latency_ns gauge\n")
		for v, row := range snap.Telemetry.Cells {
			for nr, cell := range row {
				if cell.LatN == 0 {
					continue
				}
				name := kernel.Sysno(nr).String()
				fmt.Fprintf(&b, "mvee_syscall_latency_ns{variant=\"%d\",sysno=%q,quantile=\"0.5\"} %d\n", v, name, cell.LatP50)
				fmt.Fprintf(&b, "mvee_syscall_latency_ns{variant=\"%d\",sysno=%q,quantile=\"0.99\"} %d\n", v, name, cell.LatP99)
			}
		}
	}

	// Chaos plane: injected faults by class, summed over members. All-zero
	// (but present, so dashboards can alert on "chaos unexpectedly on")
	// without a fault plan.
	fmt.Fprintf(&b, "# HELP mvee_faults_injected_total Chaos-plane faults injected, by class.\n# TYPE mvee_faults_injected_total counter\n")
	fmt.Fprintf(&b, "mvee_faults_injected_total{kind=\"latency\"} %d\n", snap.Faults.Latency)
	fmt.Fprintf(&b, "mvee_faults_injected_total{kind=\"error\"} %d\n", snap.Faults.Errors)
	fmt.Fprintf(&b, "mvee_faults_injected_total{kind=\"timeout\"} %d\n", snap.Faults.Timeouts)
	fmt.Fprintf(&b, "mvee_faults_injected_total{kind=\"short\"} %d\n", snap.Faults.Shorts)

	counter("mvee_ring_parks_total", "Replication-plane waits (ring, monitor, agent) that escalated to a futex park.", snap.Ring.Parks)
	counter("mvee_ring_stop_trips_total", "Parking-contract watchdog violations.", snap.Ring.StopTrips)
	counter("mvee_ring_append_batches_total", "Batched ring appends.", snap.Ring.AppendBatches)
	counter("mvee_ring_append_items_total", "Items published through batched appends.", snap.Ring.AppendItems)
	counter("mvee_ring_consume_runs_total", "Batched ring consumes that made progress.", snap.Ring.ConsumeRuns)
	counter("mvee_ring_consume_items_total", "Items consumed through batched consumes.", snap.Ring.ConsumeItems)
	counter("mvee_futex_parks_total", "Parker sleeps (all wait sets).", snap.Futex.Parks)
	counter("mvee_futex_wakes_total", "Parker wakes that found sleepers and broadcast.", snap.Futex.Wakes)

	// Per-member gauges: health, load, and kernel pressure.
	fmt.Fprintf(&b, "# HELP mvee_member_healthy Whether the slot accepts dispatch.\n# TYPE mvee_member_healthy gauge\n")
	for _, m := range snap.Members {
		h := 0
		if m.Healthy {
			h = 1
		}
		fmt.Fprintf(&b, "mvee_member_healthy{slot=\"%d\"} %d\n", m.Slot, h)
	}
	fmt.Fprintf(&b, "# HELP mvee_worker_epoch The member program's live worker generation (hot-restart epoch).\n# TYPE mvee_worker_epoch gauge\n")
	for _, m := range snap.Members {
		fmt.Fprintf(&b, "mvee_worker_epoch{slot=\"%d\"} %d\n", m.Slot, m.Epoch)
	}
	fmt.Fprintf(&b, "# HELP mvee_member_served_total Requests served by the slot's current session.\n# TYPE mvee_member_served_total counter\n")
	for _, m := range snap.Members {
		fmt.Fprintf(&b, "mvee_member_served_total{slot=\"%d\"} %d\n", m.Slot, m.Served)
	}
	fmt.Fprintf(&b, "# HELP mvee_member_open_fds Live descriptors across the member kernel's processes.\n# TYPE mvee_member_open_fds gauge\n")
	for _, m := range snap.Members {
		fds := 0
		for _, p := range m.Procs {
			fds += p.OpenFDs
		}
		fmt.Fprintf(&b, "mvee_member_open_fds{slot=\"%d\"} %d\n", m.Slot, fds)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
