// Package mvee is the public API of this reproduction of "Taming
// Parallelism in a Multi-Variant Execution Environment" (Volckaert et al.,
// EuroSys 2017).
//
// An MVEE (multi-variant execution environment) runs N diversified variants
// of one program in lockstep, feeding them identical inputs and comparing
// their outputs; memory-corruption exploits that depend on a concrete
// address layout make the variants behave differently, which the monitor
// detects before output escapes. This package adds the paper's missing
// piece: multithreading support via synchronization agents that record the
// master variant's synchronization-operation order and replay it in the
// slave variants, so thread-schedule nondeterminism never looks like an
// attack.
//
// # Quick start
//
//	prog := mvee.Program{Name: "hello", Main: func(t *mvee.Thread) {
//	    mu := mvee.NewMutex(t)
//	    n := 0
//	    h := t.Spawn(func(t *mvee.Thread) { mu.Lock(t); n++; mu.Unlock(t) })
//	    h.Join()
//	    mu.Lock(t); n++; mu.Unlock(t)
//	    mvee.WriteFile(t, "/out", fmt.Sprintf("%d", n))
//	}}
//	res := mvee.Run(mvee.Options{Variants: 2, Agent: mvee.WallOfClocks, ASLR: true}, prog)
//	if res.Divergence != nil { /* attack (or missing instrumentation) */ }
//
// Programs are written against the Thread API: Syscall for kernel services
// (files, pipes, sockets, memory, time) and the instrumented primitives
// (Mutex, SpinLock, Cond, Barrier, Semaphore, RWMutex, Once, WaitGroup)
// for inter-thread communication. All synchronization must go through
// these primitives — the MVEE targets data-race-free programs, exactly
// like the paper (§3).
package mvee

import (
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/synclib"
	"repro/internal/trace"
)

// AgentKind selects the sync-op replication strategy (§4.5).
type AgentKind = agent.Kind

// The available agents. NoAgent disables replication (single-variant /
// native runs); WallOfClocks is the paper's best performer.
const (
	NoAgent      = agent.None
	TotalOrder   = agent.TotalOrder
	PartialOrder = agent.PartialOrder
	WallOfClocks = agent.WallOfClocks
)

// Policy selects the monitor's comparison policy (§5.1).
type Policy = monitor.Policy

// The available policies.
const (
	StrictLockstep    = monitor.PolicyStrictLockstep
	SecuritySensitive = monitor.PolicySecuritySensitive
)

// Core types, re-exported.
type (
	// Options configures a session: variant count, agent, policy,
	// diversity (ASLR/DCL), and buffer sizes.
	Options = core.Options
	// Program is the code run by every variant.
	Program = core.Program
	// Thread is a variant thread handle: syscalls, sync ops, spawning.
	Thread = core.Thread
	// ThreadHandle joins a spawned thread.
	ThreadHandle = core.ThreadHandle
	// ProcHandle is the parent-side handle of a forked child process
	// (Thread.Fork): its deterministic pid, for Kill/Waitpid.
	ProcHandle = core.ProcHandle
	// SyncVar is an instrumented synchronization variable.
	SyncVar = core.SyncVar
	// Session is an MVEE run in progress.
	Session = core.Session
	// Result summarizes a finished run.
	Result = core.Result
	// Divergence reports why the monitor shut the variants down.
	Divergence = monitor.Divergence
	// Kernel is the simulated kernel ("outside world") of a session.
	Kernel = kernel.Kernel
	// Trace is a recorded execution for offline replay: set Options.Record
	// to produce one (Result.Trace), Options.Replay to re-execute it
	// deterministically. Traces serialize with Encode/Decode.
	Trace = trace.Trace
)

// DecodeTrace reads a serialized execution trace.
var DecodeTrace = trace.Decode

// Instrumented synchronization primitives (the workload-facing
// "libpthread", §5.3).
type (
	// Mutex is a futex-based lock (pthread_mutex).
	Mutex = synclib.Mutex
	// SpinLock is the ad-hoc CAS/store spinlock of Listing 1.
	SpinLock = synclib.SpinLock
	// Cond is a condition variable (pthread_cond).
	Cond = synclib.Cond
	// Barrier is a phase barrier (pthread_barrier).
	Barrier = synclib.Barrier
	// Semaphore is a counting semaphore (sem_t).
	Semaphore = synclib.Semaphore
	// RWMutex is a read-write lock (pthread_rwlock).
	RWMutex = synclib.RWMutex
	// Once runs an initializer exactly once (pthread_once).
	Once = synclib.Once
	// WaitGroup joins fork/join work.
	WaitGroup = synclib.WaitGroup
)

// Constructors for the synchronization primitives.
var (
	NewMutex     = synclib.NewMutex
	NewSpinLock  = synclib.NewSpinLock
	NewCond      = synclib.NewCond
	NewBarrier   = synclib.NewBarrier
	NewSemaphore = synclib.NewSemaphore
	NewRWMutex   = synclib.NewRWMutex
	NewOnce      = synclib.NewOnce
	NewWaitGroup = synclib.NewWaitGroup
)

// The fleet layer: a pool of concurrent MVEE sessions behind a request
// gateway, with divergence quarantine and hot replacement (see
// internal/fleet). Build a FleetConfig (Program + Port + Session
// template), pass it to NewFleet, and submit requests with Fleet.Do; a
// diverged session is quarantined and replaced while the pool keeps
// serving.
type (
	// Fleet is a running session pool; create with NewFleet.
	Fleet = fleet.Fleet
	// FleetConfig sizes and shapes a fleet.
	FleetConfig = fleet.Config
	// FleetStats is the fleet-wide aggregate (throughput, latency
	// percentiles, divergences caught, sessions recycled).
	FleetStats = fleet.Stats
	// Quarantine is the forensic record of one diverged session.
	Quarantine = fleet.Quarantine
	// FleetMember is a point-in-time view of one pool slot.
	FleetMember = fleet.MemberInfo
)

// NewFleet builds the pool, warms every session, and starts the gateway.
var NewFleet = fleet.New

// NewSession prepares a session without starting it; use it when the test
// or tool needs the Kernel (to seed files or connect clients) before and
// after the run.
func NewSession(opts Options, prog Program) *Session {
	return core.NewSession(opts, prog)
}

// Run executes prog under the MVEE and blocks until every variant
// finished or the monitor killed the session.
func Run(opts Options, prog Program) *Result {
	return core.Run(opts, prog)
}

// NewKernel creates a stand-alone simulated kernel to pre-populate and
// pass via Options.Kernel.
func NewKernel() *Kernel { return kernel.New() }

// WriteFile writes data to path through monitored open/write/close
// syscalls — the canonical way for a program to emit a result that the
// monitor cross-checks between variants.
func WriteFile(t *Thread, path string, data []byte) bool {
	r := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly | kernel.OTrunc}, []byte(path))
	if !r.Ok() {
		return false
	}
	fd := r.Val
	w := t.Syscall(kernel.SysWrite, [6]uint64{fd}, data)
	t.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	return w.Ok()
}

// ReadFile reads up to max bytes from path through monitored syscalls;
// the master performs the I/O and the data is replicated to all variants.
func ReadFile(t *Thread, path string, max int) ([]byte, bool) {
	r := t.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, []byte(path))
	if !r.Ok() {
		return nil, false
	}
	fd := r.Val
	rd := t.Syscall(kernel.SysRead, [6]uint64{fd, uint64(max)}, nil)
	t.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	if !rd.Ok() {
		return nil, false
	}
	return rd.Data, true
}

// Now returns the session clock via a monitored gettimeofday: identical in
// every variant because the master's reading is replicated.
func Now(t *Thread) uint64 {
	return t.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil).Val
}
