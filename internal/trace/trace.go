// Package trace serializes MVEE execution traces for offline record/replay
// (the RecPlay [35] mode of operation discussed in §6): a recorded session
// captures everything nondeterministic about the master's execution — the
// per-thread synchronization tickets and the per-thread system-call
// records — and a later session can replay it deterministically without a
// live master. Typical use: capture a failing production run, replay it
// under instrumentation.
package trace

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/agent"
	"repro/internal/monitor"
)

// Format version; bump on incompatible changes to the encoded layout.
// Version 2: monitor.Record stores its input payload inline/spilled
// (PayloadLen/Inline/Spill) instead of a single Data slice.
// Version 3: Record carries Ret.Sig — the signal delivered at the
// record's syscall boundary — so recorded signal schedules replay.
// Version 4: Record carries Ret.Inj — the fault-injection marker — so a
// session recorded under a chaos plan replays its injected faults
// byte-identically instead of re-rolling them.
// Version 5: two Sysno values appended — SysWritev and SysSendfile (the
// vectored/zero-copy transfer calls). The record layout is unchanged; the
// bump exists because Sysno values ARE the wire format, and a v4 reader
// would render the new numbers as unknown syscalls.
// Version 6: futex waits and wakes take sync-op tickets, so a v5 stream
// lacks the tickets a v6 replay consumes.
const Version = 6

// Trace is one recorded execution.
type Trace struct {
	Version    int
	Program    string
	MaxThreads int
	WallSize   int
	// SyncOps[tid] is the stream of wall-of-clocks tickets thread tid's
	// sync ops consumed, in program order.
	SyncOps [][]agent.WEntry
	// Syscalls[tid] is the stream of monitored syscall records of thread
	// tid, including the final thread-exit markers.
	Syscalls [][]monitor.Record
}

// Ops returns the total number of recorded sync ops.
func (t *Trace) Ops() int {
	n := 0
	for _, s := range t.SyncOps {
		n += len(s)
	}
	return n
}

// Calls returns the total number of recorded syscall records (excluding
// exit markers).
func (t *Trace) Calls() int {
	n := 0
	for _, s := range t.Syscalls {
		for _, r := range s {
			if !r.Exit {
				n++
			}
		}
	}
	return n
}

// Encode writes the trace to w in gob format.
func (t *Trace) Encode(w io.Writer) error {
	t.Version = Version
	if err := gob.NewEncoder(w).Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Decode reads a trace from r.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if t.Version != Version {
		return nil, fmt.Errorf("trace: version %d, want %d", t.Version, Version)
	}
	return &t, nil
}
