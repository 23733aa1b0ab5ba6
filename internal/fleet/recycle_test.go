package fleet_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/monitor"
)

// TestQuarantineKindAndReason pins the one quarantine verdict over its
// three kinds. A divergence outranks a deadlock, and a deadlock a panic,
// so a record carrying several verdicts reports the first.
func TestQuarantineKindAndReason(t *testing.T) {
	div := &monitor.Divergence{Variant: 1, Tid: 2, Reason: "payload mismatch",
		Master: "send(a)", Slave: "send(b)"}
	dl := &core.DeadlockReport{Threads: []core.BlockedThread{{Tid: 0, Kind: "futex", Addr: 0x40}}}
	for _, tc := range []struct {
		name             string
		q                fleet.Quarantine
		kind, wantReason string
	}{
		{"divergence", fleet.Quarantine{Divergence: div, Deadlock: dl, Panic: "boom"}, "divergence",
			"divergence in variant 1 thread 2: payload mismatch (master: send(a), slave: send(b))"},
		{"deadlock", fleet.Quarantine{Deadlock: dl, Panic: "boom"}, "deadlock", dl.String()},
		{"crash", fleet.Quarantine{Panic: "boom"}, "crash", "program crash: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.q.Kind(); got != tc.kind {
				t.Errorf("Kind() = %q, want %q", got, tc.kind)
			}
			if got := tc.q.Reason(); got != tc.wantReason {
				t.Errorf("Reason() = %q, want %q", got, tc.wantReason)
			}
		})
	}
}
