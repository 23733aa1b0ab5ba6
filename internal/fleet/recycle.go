package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Quarantine is the forensic record of one session that died while
// serving — its variants diverged, the program crashed, or the deadlock
// detector proved it permanently wedged: enough to
// attribute the death (which slot, which generation, which layout seed),
// to judge its blast radius (requests served, uptime, syscall and
// sync-op volume), and — when the fleet's sessions run with Record — to
// re-execute the whole session offline via core's Replay support.
type Quarantine struct {
	Slot int // pool slot the session occupied
	Gen  int // its respawn generation
	Seed int64
	// Divergence is the monitor's verdict: which variant, which thread,
	// and the rendered master/slave call mismatch. Nil for a crash.
	Divergence *monitor.Divergence
	// Deadlock is the detector's verdict when the session was killed
	// because every live master thread was provably parked (see
	// core.Options.DetectDeadlocks). Nil for divergences and crashes.
	Deadlock *core.DeadlockReport
	// Panic is the program panic that killed the session, if that is
	// what did (crashed sessions are quarantined and replaced too).
	Panic any
	// Served is the number of requests the session answered before it was
	// killed.
	Served   uint64
	Uptime   time.Duration
	Syscalls uint64
	SyncOps  uint64
	// Trace is the recorded execution (nil unless Session.Record):
	// replaying it deterministically reproduces the run that diverged.
	Trace *trace.Trace
	// Flight is each variant's flight-recorder tail, frozen by the monitor
	// at kill time: the last replicated records leading up to the death,
	// oldest first (see internal/telemetry).
	Flight [][]telemetry.FlightRecord
	When   time.Time
}

// Kind names what killed the session: "divergence", "deadlock" or "crash".
func (q *Quarantine) Kind() string {
	kind, _ := q.verdict()
	return kind
}

// Reason renders the verdict of Kind: the monitor's divergence, the
// detector's wait-for report, or the program's panic.
func (q *Quarantine) Reason() string {
	_, reason := q.verdict()
	return reason
}

func (q *Quarantine) verdict() (kind, reason string) {
	switch {
	case q.Divergence != nil:
		return "divergence", q.Divergence.Error()
	case q.Deadlock != nil:
		return "deadlock", q.Deadlock.String()
	}
	return "crash", fmt.Sprintf("program crash: %v", q.Panic)
}

// quarantine captures the diverged member's forensic record.
func (f *Fleet) quarantine(m *member, res *core.Result) {
	q := Quarantine{
		Slot: m.slot, Gen: m.gen, Seed: m.seed,
		Divergence: res.Divergence,
		Deadlock:   res.Deadlock,
		Panic:      res.Panic,
		Served:     m.served.Load(),
		Uptime:     res.Duration,
		Syscalls:   res.Syscalls,
		SyncOps:    res.SyncOps,
		Trace:      res.Trace,
		Flight:     res.Flight,
		When:       time.Now(),
	}
	switch q.Kind() {
	case "divergence":
		f.divergences.Add(1)
	case "deadlock":
		f.deadlocks.Add(1)
	default:
		f.crashes.Add(1)
	}
	f.quarMu.Lock()
	f.quarantined = append(f.quarantined, q)
	// Bounded retention: drop the oldest records past the cap so churny
	// long-lived pools don't accumulate forensics forever (the counters
	// keep the full totals).
	if over := len(f.quarantined) - maxQuarantined; over > 0 {
		f.quarantined = append(f.quarantined[:0:0], f.quarantined[over:]...)
	}
	f.quarMu.Unlock()
}

// Quarantined returns a copy of the retained quarantine records (up to
// maxQuarantined, oldest first; older ones are dropped past the
// cap).
func (f *Fleet) Quarantined() []Quarantine {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	return append([]Quarantine(nil), f.quarantined...)
}

// replace hot-swaps a fresh session into the quarantined member's slot.
// The session is BUILT outside f.mu — construction allocates per-variant
// address spaces, processes and agents, and holding the write lock for
// that would stall dispatch (pick's read lock) across the whole pool on
// every recycle. Only the closed-check + slot swap + launch run under
// f.mu, so a replacement cannot race Close: once Close has flipped
// closed, no further replacement escapes the drain.
func (f *Fleet) replace(old *member) {
	if f.closed.Load() {
		return
	}
	nm := f.newMember(old.slot, old.gen+1)
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		// The fleet closed while the replacement was being built. The
		// session was never started; run it killed so its exchange and
		// capture machinery unwinds instead of leaking.
		nm.sess.Kill()
		nm.sess.Start()
		nm.sess.Wait()
		return
	}
	f.slots[old.slot] = nm
	f.launch(nm)
	f.mu.Unlock()
	f.recycled.Add(1)
}

// memberSeed derives the diversity seed for slot's generation-gen session.
//
// Generation 0 uses the configured base seed for every slot — the fleet
// equivalent of deploying the same diversified build on every node; the
// security diversity the MVEE relies on is BETWEEN the variants inside a
// session (the variant id feeds layout randomization), not between pool
// members. Respawned sessions are re-randomized: an attacker whose layout
// leak diverged (and thereby burned) one session cannot reuse the leak
// against its replacement, because the replacement's variants live at
// fresh addresses.
func memberSeed(base int64, slot, gen int) int64 {
	if gen == 0 {
		return base
	}
	return base + int64(slot+1)*7919 + int64(gen)*104729
}
