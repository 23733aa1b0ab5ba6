// Package core is the MVEE engine: it launches N diversified variants of a
// program, wires each variant to the monitor (system calls) and to a
// synchronization agent (sync ops), and collects the outcome.
//
// A "variant" is a set of goroutines ("vthreads") executing the same
// Program against its own diversified address space and kernel process.
// Thread i of every variant corresponds to thread i of every other variant;
// the Go scheduler supplies the real scheduling nondeterminism that the
// paper's machinery exists to tame.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/variant"
)

// Program is the unit of execution: Main runs as thread 0 (the initial
// thread) of every variant and may spawn further threads.
type Program struct {
	Name string
	Main func(t *Thread)
}

// Options configures a session.
type Options struct {
	// Variants is the number of variants to run in lockstep (>= 1).
	Variants int
	// Agent selects the sync-op replication strategy.
	Agent agent.Kind
	// Policy selects the monitor's comparison policy.
	Policy monitor.Policy
	// ASLR / DCL enable the diversity techniques (§5.1 Correctness).
	ASLR bool
	DCL  bool
	// Seed drives layout randomization.
	Seed int64
	// MaxThreads bounds logical threads per variant.
	MaxThreads int
	// SyncBufCap / RingCap size the sync and syscall buffers.
	SyncBufCap int
	RingCap    int
	// WallSize is the wall-of-clocks size (power of two).
	WallSize int
	// Telemetry enables the monitor's syscall matrix and per-variant
	// flight recorders (internal/telemetry). Off by default: the matrix
	// adds one atomic add per call and ~6 per replicated record.
	Telemetry bool
	// Kernel optionally supplies a pre-populated kernel (input files,
	// listening clients). If nil a fresh kernel is created.
	Kernel *kernel.Kernel
	// Inject installs a fault injector (internal/chaos) on the session's
	// kernel: the chaos plane. Faults are decided once, in the master's
	// execution of replicated calls, and replicated to every variant.
	Inject kernel.FaultInjector
	// Clock substitutes the kernel's time source: virtual time for
	// deterministic tests, or kernel.NewScaledClock(n) for latency soaks
	// on n× accelerated time. Nil keeps the wall clock.
	Clock kernel.Clock
	// Record captures the session's nondeterminism (sync-op tickets and
	// syscall records) into Result.Trace for later offline replay. It
	// forces the wall-of-clocks agent.
	Record bool
	// Replay re-executes a recorded trace deterministically in a single
	// variant; Variants, Agent and diversity options are taken from the
	// session that produced the trace where relevant.
	Replay *trace.Trace
	// DetectDeadlocks arms the deadlock detector (internal/kernel's
	// BlockBoard) on the master variant: when every live master thread is
	// parked at an untimed internal blocking site, the session is killed
	// and Result.Deadlock carries the wait-for snapshot. Detection runs on
	// the master only — slaves replay the master's schedule, so a master
	// deadlock speaks for every variant. Off by default; the armed-but-idle
	// cost is one nil check per blocking kernel path.
	DetectDeadlocks bool
}

func (o *Options) fill() {
	if o.Variants <= 0 {
		o.Variants = 2
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 64
	}
	if o.SyncBufCap <= 0 {
		// Per-thread WoC sync buffers (and the shared TO/PO buffer). 1024
		// tickets of run-ahead per thread is far beyond what the slaves
		// ever lag in practice; larger buffers only add creation cost and
		// GC-scanned memory.
		o.SyncBufCap = 1024
	}
	if o.RingCap <= 0 {
		// Per-thread syscall rings. Under strict lockstep the in-flight
		// depth is ~1 and even the relaxed run-ahead protocol stays within
		// a few dozen records; 256 leaves ample slack while keeping lazy
		// ring creation (a zeroing of cap × sizeof(Record)) off the
		// first-request latency path.
		o.RingCap = 256
	}
	if o.WallSize <= 0 {
		o.WallSize = 4096
	}
}

// Result summarizes a finished session.
type Result struct {
	// Divergence is non-nil if the monitor shut the session down because
	// the variants diverged.
	Divergence *monitor.Divergence
	// Panic carries the first panic value raised by program code, if any;
	// the session is killed and all variants unwound when that happens.
	Panic any
	// Duration is the wall-clock time of the whole session.
	Duration time.Duration
	// Syscalls is the master variant's monitored syscall count.
	Syscalls uint64
	// SyncOps is the master variant's recorded sync-op count.
	SyncOps uint64
	// Stalls is the summed slave stall count (0 for 1 variant).
	Stalls uint64
	// Variants echoes the variant count.
	Variants int
	// Trace is the recorded execution when Options.Record was set.
	Trace *trace.Trace
	// Flight is each variant's flight-recorder tail (oldest first) when
	// Options.Telemetry was set — frozen at kill time if the session was
	// killed, the final live view otherwise.
	Flight [][]telemetry.FlightRecord
	// Deadlock is non-nil if the deadlock detector (Options.DetectDeadlocks)
	// shut the session down: every live master thread was provably parked at
	// an untimed internal blocking site. Distinct from Divergence — the
	// variants agreed perfectly; the program itself stopped making progress.
	Deadlock *DeadlockReport
}

// Session is one MVEE run in progress.
type Session struct {
	opts Options
	prog Program

	kern  *kernel.Kernel
	mon   *monitor.Monitor
	ex    agent.Exchange
	vars  []*variantState
	dl    *deadlockState
	start time.Time

	// Lifecycle: Start launches the variants exactly once; done closes
	// after every variant thread unwound and result is populated.
	startOnce sync.Once
	done      chan struct{}
	result    *Result
	hooks     hooks

	panicMu  sync.Mutex
	panicVal any // first program panic, if any
}

// hooks are the session-lifecycle callbacks. They must be registered
// before Start; registration is not synchronized against a running
// session.
type hooks struct {
	start      []func()
	finish     []func(*Result)
	divergence []func(*monitor.Divergence)
}

// variantState is the per-variant runtime: its address space, kernel
// process, agent, futex namespace, and thread accounting.
type variantState struct {
	id    int
	space *variant.Space
	proc  *kernel.Proc
	agent agent.Agent
	futex futex.Table
	wg    sync.WaitGroup
}

// NewSession prepares (but does not start) a session.
func NewSession(opts Options, prog Program) *Session {
	opts.fill()
	if opts.Replay != nil {
		opts.Variants = 1
		if opts.Replay.MaxThreads > opts.MaxThreads {
			opts.MaxThreads = opts.Replay.MaxThreads
		}
		if opts.Replay.WallSize > 0 {
			opts.WallSize = opts.Replay.WallSize
		}
	}
	kern := opts.Kernel
	if kern == nil {
		kern = kernel.New()
	}
	if opts.Clock != nil {
		kern.SetClock(opts.Clock)
	}
	if opts.Inject != nil {
		kern.SetInjector(opts.Inject)
	}
	s := &Session{opts: opts, prog: prog, kern: kern, done: make(chan struct{})}
	if opts.DetectDeadlocks && opts.Replay == nil {
		s.dl = newDeadlockState(opts.MaxThreads)
	}

	procs := make([]*kernel.Proc, opts.Variants)
	s.vars = make([]*variantState, opts.Variants)
	for v := 0; v < opts.Variants; v++ {
		space := variant.NewSpace(v, variant.Options{ASLR: opts.ASLR, DCL: opts.DCL, Seed: opts.Seed})
		proc := kern.NewProc(space.BrkBase(), space.MmapBase())
		procs[v] = proc
		s.vars[v] = &variantState{
			id:    v,
			space: space,
			proc:  proc,
		}
	}
	if s.dl != nil {
		// The board arms the master's root process only; fork children
		// inherit it kernel-side. The callback runs on the board's watcher
		// goroutine after the snapshot validated.
		s.dl.board = kernel.NewBlockBoard(opts.MaxThreads, s.onDeadlock)
		procs[0].SetBlockBoard(s.dl.board)
	}
	mcfg := monitor.Config{
		MaxThreads: opts.MaxThreads,
		RingCap:    opts.RingCap,
		Policy:     opts.Policy,
		Capture:    opts.Record,
		Telemetry:  opts.Telemetry,
	}
	if opts.Replay != nil {
		mcfg.Replay = opts.Replay.Syscalls
	}
	s.mon = monitor.New(kern, procs, mcfg)
	s.ex = s.newExchange(agent.Config{
		Slaves:     opts.Variants - 1,
		MaxThreads: opts.MaxThreads,
		BufCap:     opts.SyncBufCap,
		WallSize:   opts.WallSize,
	})
	for v, vs := range s.vars {
		if opts.Replay != nil {
			v = 1 // the replayed variant is slave 1 of the recording
		}
		if v == 0 {
			vs.agent = s.ex.MasterAgent()
		} else {
			vs.agent = s.ex.SlaveAgent(v - 1)
		}
	}
	// Teardown: when the monitor kills the session, stop the agent
	// exchange and release futex waiters so every vthread unwinds. If the
	// kill was a divergence, notify the divergence hooks immediately —
	// before the variants finish unwinding — so an embedding pool can stop
	// routing work to this session as early as possible.
	s.mon.OnKill(func() {
		s.ex.Stop()
		for _, vs := range s.vars {
			vs.futex.InterruptAll()
		}
		if d := s.mon.Divergence(); d != nil {
			for _, f := range s.hooks.divergence {
				f(d)
			}
		}
	})
	return s
}

// OnStart registers f to run on the Start goroutine just before the
// variants launch. Register hooks before calling Start or Run.
func (s *Session) OnStart(f func()) { s.hooks.start = append(s.hooks.start, f) }

// OnFinish registers f to run with the session result once every variant
// thread has finished, before Wait unblocks.
func (s *Session) OnFinish(f func(*Result)) { s.hooks.finish = append(s.hooks.finish, f) }

// OnDivergence registers f to run as soon as the monitor kills the session
// because the variants diverged — that is, while the variants are still
// unwinding, ahead of OnFinish. External kills (Session.Kill) do not fire
// it.
func (s *Session) OnDivergence(f func(*monitor.Divergence)) {
	s.hooks.divergence = append(s.hooks.divergence, f)
}

// newExchange builds the session's sync-op exchange, and is the one place
// that decides its strategy: a recording and a replay use wall-of-clocks,
// whose tickets are the trace's sync-op streams, and any other single-variant
// session has nothing to replicate.
func (s *Session) newExchange(acfg agent.Config) agent.Exchange {
	switch {
	case s.opts.Replay != nil:
		return agent.NewReplayExchange(s.opts.Replay.SyncOps, acfg)
	case s.opts.Record:
		return agent.NewCapturingExchange(acfg)
	case s.opts.Variants <= 1:
		return agent.NewExchange(agent.None, acfg)
	}
	return agent.NewExchange(s.opts.Agent, acfg)
}

// Kernel exposes the session's kernel so tests and load generators can
// interact with the "outside world" (files, client connections).
func (s *Session) Kernel() *kernel.Kernel { return s.kern }

// Monitor exposes the monitor (for policy inspection in tests).
func (s *Session) Monitor() *monitor.Monitor { return s.mon }

// Telemetry exposes the session's telemetry recorder (nil unless
// Options.Telemetry was set).
func (s *Session) Telemetry() *telemetry.Recorder { return s.mon.Telemetry() }

// Start launches the program in all variants and returns immediately;
// Wait collects the outcome. Calling Start more than once is a no-op.
func (s *Session) Start() {
	s.startOnce.Do(func() {
		s.start = time.Now()
		for _, f := range s.hooks.start {
			f()
		}
		for _, vs := range s.vars {
			vs.wg.Add(1)
			t := &Thread{ID: 0, sess: s, vs: vs, proc: vs.proc,
				sigs: newSigTable(), ps: &procState{}}
			t.ps.wg.Add(1)
			t.board().ThreadStart(t.ID)
			go t.run(s.prog.Main)
		}
		go s.collect()
	})
}

// collect joins every variant, assembles the Result, fires the finish
// hooks, and releases Wait.
func (s *Session) collect() {
	for _, vs := range s.vars {
		vs.wg.Wait()
	}
	if s.dl != nil {
		s.dl.board.Close()
	}
	s.panicMu.Lock()
	pv := s.panicVal
	s.panicMu.Unlock()
	res := &Result{
		Divergence: s.mon.Divergence(),
		Panic:      pv,
		Duration:   time.Since(s.start),
		Syscalls:   s.mon.Syscalls(0),
		SyncOps:    s.vars[0].agent.Ops(),
		Variants:   s.opts.Variants,
		Flight:     s.mon.FlightTail(),
		Deadlock:   s.Deadlock(),
	}
	for _, vs := range s.vars[1:] {
		res.Stalls += vs.agent.Stalls()
	}
	if s.opts.Record {
		res.Trace = &trace.Trace{
			Program:    s.prog.Name,
			MaxThreads: s.opts.MaxThreads,
			WallSize:   s.opts.WallSize,
			SyncOps:    agent.StopTape(s.ex),
			Syscalls:   s.mon.StopCapture(),
		}
	}
	s.result = res
	for _, f := range s.hooks.finish {
		f(res)
	}
	close(s.done)
}

// Wait blocks until every variant thread has finished or the session was
// killed, then returns the result. It may be called from any number of
// goroutines; all see the same Result.
func (s *Session) Wait() *Result {
	<-s.done
	return s.result
}

// Run executes the program in all variants and blocks until every variant
// thread has finished or the session was killed.
func (s *Session) Run() *Result {
	s.Start()
	return s.Wait()
}

// Kill aborts the session from outside (e.g. test timeouts).
func (s *Session) Kill() { s.mon.Kill(nil) }

// Signal posts signo to the session's root process from outside the guest —
// the host-side kill(2), and the admin plane's reload trigger. Delivery
// happens at the next monitored syscall boundary reached by any thread of
// the root process, identically in every variant: only the master's pending
// state is consulted (the master stamps Ret.Sig), and slaves learn of the
// delivery from the replicated record. It reports whether the signal was
// accepted (false for an invalid signo or an already-dead root).
func (s *Session) Signal(signo int) bool {
	return s.vars[0].proc.Post(signo)
}

// Run is the convenience one-shot API.
func Run(opts Options, prog Program) *Result {
	return NewSession(opts, prog).Run()
}

// Thread is a vthread: the handle program code uses for system calls, sync
// ops, and thread management. A Thread value is owned by exactly one
// goroutine.
type Thread struct {
	// ID is the logical thread id, identical across variants (and unique
	// across the whole process tree: fork children draw from the same
	// tid space).
	ID   int
	sess *Session
	vs   *variantState
	// proc is the thread's current process: the variant's root, or a
	// fork descendant. All kernel state (descriptors, signals, pid) is
	// per-proc.
	proc *kernel.Proc
	// sigs maps caught signals to their Go handlers, shared by every
	// thread of one process within one variant (fork children get a
	// copy, like Linux inherits dispositions).
	sigs *sigTable
	// ps is the join state of this thread's process in this variant,
	// shared by every sibling vthread (Spawn inherits it; Fork starts a
	// fresh one).
	ps *procState
	// leader marks the initial thread of a forked process: its return
	// (or a terminating signal) ends the process, so the trampoline
	// issues the implicit SysExit.
	leader bool
	// fw is this thread's futex waiter: a thread waits on one word at a
	// time, so FutexWait reuses it for every wait and allocates nothing.
	fw futex.Waiter
}

// sigTable is the core-side half of a process's signal table: the actual
// Go handler functions behind the kernel's SigHandler dispositions.
type sigTable struct {
	mu sync.Mutex
	h  map[int]func(*Thread, int)
}

func newSigTable() *sigTable { return &sigTable{h: make(map[int]func(*Thread, int))} }

func (st *sigTable) clone() *sigTable {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := newSigTable()
	for s, h := range st.h {
		c.h[s] = h
	}
	return c
}

// set installs (or, with nil, removes) a handler and returns the previous
// one, for rollback when the registering syscall fails.
func (st *sigTable) set(signo int, h func(*Thread, int)) func(*Thread, int) {
	st.mu.Lock()
	old := st.h[signo]
	if h == nil {
		delete(st.h, signo)
	} else {
		st.h[signo] = h
	}
	st.mu.Unlock()
	return old
}

func (st *sigTable) handler(signo int) func(*Thread, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.h[signo]
}

// procExit is the control-flow panic that terminates a process: raised by
// Thread.Exit and by the delivery of a terminating signal, recovered by
// the trampoline, which performs the kernel exit.
type procExit struct{ status int }

// threadKill is the control-flow panic that unwinds ONE thread because its
// process entered exit-group: a sibling exited the process (Thread.Exit, a
// terminating signal, or the leader returning) and this thread observed the
// pseudo-signal kernel.SigExitGroup at its next syscall boundary. The
// trampoline recovers it and issues the thread-exit syscall; the last
// sibling out completes the kernel-side zombie transition.
type threadKill struct{}

// procState is the per-(variant, process) join state: a WaitGroup counting
// the process's live vthread trampolines. ProcHandle.Join waits on it, so
// joining a forked child means waiting for the WHOLE process — every
// spawned sibling included — to unwind, not just the initial thread.
// (Add-while-waited is safe: a thread only spawns while holding its own +1,
// so the counter cannot touch zero before the process is really gone.)
type procState struct{ wg sync.WaitGroup }

// run is the vthread trampoline: it executes fn and recovers the session's
// control-flow panics (kill, stop, process exit) so that teardown is quiet.
func (t *Thread) run(fn func(*Thread)) {
	defer t.vs.wg.Done()
	defer t.ps.wg.Done()
	// Master-variant thread accounting for the deadlock detector: the
	// board's live count must cover every vthread that can ever park, and
	// the exit must fire on every unwind path. The defer sits between the
	// WaitGroup defers (so the board is quiesced before collect can Close
	// it) and the recover (which may still issue the exit syscalls — none
	// of which park at instrumented sites). The matching ThreadStart is the
	// LAUNCHER's, before its `go` (Start, Spawn, Fork): registered from in
	// here, the board undercounts between `go` and this line, and a sibling
	// that parks in that window reads as "every live thread is blocked" — a
	// false deadlock.
	defer t.board().ThreadExit(t.ID)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch nr, arg, ok := exitCall(r); {
		case nr != kernel.SysInvalid:
			t.finish(nr, arg)
		case !ok:
			// A genuine program panic: record it, tear the session
			// down, and unwind quietly — a library must not crash the
			// embedding process for a program bug.
			t.sess.panicMu.Lock()
			if t.sess.panicVal == nil {
				t.sess.panicVal = r
			}
			t.sess.panicMu.Unlock()
			t.sess.mon.Kill(nil)
		}
	}()
	fn(t)
	if t.leader {
		// The initial thread of a forked process returning IS the process
		// exiting: zombie + SIGCHLD + waitpid wake, all inside the
		// replicated stream. Sibling threads still running observe the
		// exit-group at their next syscall boundary and unwind.
		t.syscall(kernel.SysExit, 0)
	} else {
		// Any other thread returning retires just itself — uniform for
		// spawned threads and the variant root's initial thread (whose
		// process, like init, never exits from inside).
		t.syscall(kernel.SysThreadExit)
	}
	t.sess.mon.ThreadExit(t.vs.id, t.ID)
}

// exitCall classifies a value recovered in a vthread. The session's
// teardown panics (kill, agent or ring stop, an interrupted futex wait)
// return ok with nr SysInvalid: the session is dying, and the thread
// unwinds with nothing left to do. procExit (Thread.Exit, or a terminating
// signal delivered at a syscall boundary) returns the process exit with its
// status; threadKill (a sibling ended the process) returns the thread exit.
// Anything else is a program panic: ok is false.
func exitCall(r any) (nr kernel.Sysno, arg uint64, ok bool) {
	switch rv := r.(type) {
	case procExit:
		return kernel.SysExit, uint64(rv.status), true
	case threadKill:
		return kernel.SysThreadExit, 0, true
	}
	switch r {
	case monitor.ErrKilled, agent.ErrStopped, ring.ErrStopped, ErrVariantKilled:
		return kernel.SysInvalid, 0, true
	}
	return kernel.SysInvalid, 0, false
}

// finish issues the exit syscall nr and the thread-exit rendezvous from
// inside the trampoline's recover. Both are monitored events at a
// deterministic position, so master and slaves unwind at the same point;
// the last sibling's thread exit completes the process's zombie transition
// kernel-side. Control-flow panics raised by either are swallowed: the
// session or the process is already dying (a second terminating signal at
// the exit boundary is moot), and a panic escaping a deferred function
// would crash the embedder.
func (t *Thread) finish(nr kernel.Sysno, arg uint64) {
	defer func() {
		if r := recover(); r != nil {
			if _, _, ok := exitCall(r); !ok {
				panic(r)
			}
		}
	}()
	t.syscall(nr, arg)
	t.sess.mon.ThreadExit(t.vs.id, t.ID)
}

// Syscall traps into the monitor with a full kernel.Call. If a signal is
// delivered at this boundary (Ret.Sig), the registered handler runs on
// this thread before Syscall returns — or, for a terminating signal with
// no handler, the process exits. Delivery order is identical across
// variants because Ret.Sig is part of the replicated record.
func (t *Thread) Syscall(nr kernel.Sysno, args [6]uint64, data []byte) kernel.Ret {
	ret := t.sess.mon.InvokeOn(t.vs.id, t.ID, t.proc, kernel.Call{Nr: nr, Args: args, Data: data, Tid: t.ID})
	if ret.Sig != 0 {
		t.deliver(int(ret.Sig))
	}
	return ret
}

// SyscallInto is Syscall with a caller-provided destination buffer for
// calls that return bytes (read/recv, and poll's revents array — poll
// needs both: data is its input fd set, buf receives the result): the
// master's kernel execution fills buf directly, slaves copy the replicated
// record's bytes into their own buf, and Ret.Data aliases buf's prefix, so
// each variant owns its result. This is how a serving loop recycles ONE
// scratch buffer across requests and wakeups instead of paying the
// exact-sized allocation the bufferless path makes per call.
func (t *Thread) SyscallInto(nr kernel.Sysno, args [6]uint64, data, buf []byte) kernel.Ret {
	ret := t.sess.mon.InvokeOn(t.vs.id, t.ID, t.proc, kernel.Call{Nr: nr, Args: args, Data: data, Buf: buf, Tid: t.ID})
	if ret.Sig != 0 {
		t.deliver(int(ret.Sig))
	}
	return ret
}

// SyscallBatch traps into the monitor with a RUN of calls replicated as
// one multi-record (monitor.InvokeBatchOn): one cross-core publication per
// batch instead of one per call. rets must be len(calls); rets[i] receives
// call i's result. Only replicated calls batch (recv/send/poll-style I/O);
// a batch containing anything else transparently falls back to the
// per-call path inside the monitor. The batch is ONE signal-delivery
// boundary: a signal landing mid-batch is stamped on the last record and
// delivered here after every result is in.
func (t *Thread) SyscallBatch(calls []kernel.Call, rets []kernel.Ret) {
	for i := range calls {
		calls[i].Tid = t.ID
	}
	t.sess.mon.InvokeBatchOn(t.vs.id, t.ID, t.proc, calls, rets)
	// A true batch stamps at most the last record's Sig; the fallback path
	// may stamp several. Deliver them in record order either way — the
	// positions are replicated, so every variant runs the same handlers at
	// the same boundaries.
	for i := range rets {
		if rets[i].Sig != 0 {
			t.deliver(int(rets[i].Sig))
		}
	}
}

// deliver runs the handler for a signal popped at a syscall boundary, or
// applies the default action (terminate) when none is registered. Handlers
// run on the interrupted thread and may make syscalls — those nest into
// the replicated stream at the same position in every variant.
func (t *Thread) deliver(signo int) {
	if signo == kernel.SigExitGroup {
		// Not a real signal: the kernel's exit-group marker, stamped at
		// this boundary because a sibling ended the process. No handler
		// can exist for it (it is outside the signal space); unwind.
		panic(threadKill{})
	}
	if h := t.sigs.handler(signo); h != nil {
		h(t, signo)
		return
	}
	if kernel.DefaultTerminates(signo) {
		panic(procExit{status: 128 + signo})
	}
}

// syscall is shorthand for data-less calls.
func (t *Thread) syscall(nr kernel.Sysno, args ...uint64) kernel.Ret {
	var a [6]uint64
	copy(a[:], args)
	return t.Syscall(nr, a, nil)
}

// Variant returns the variant id this thread belongs to, via the monitor's
// MVEE-awareness syscall (§4.5): 0 means master.
func (t *Thread) Variant() int {
	return int(t.syscall(kernel.SysMVEEAware).Val)
}

// IsMaster reports whether this thread's variant is the master.
func (t *Thread) IsMaster() bool { return t.Variant() == 0 }

// Variants returns the number of variants in the session.
func (t *Thread) Variants() int { return t.sess.opts.Variants }

// Spawn starts fn as a new vthread of the calling thread's PROCESS — the
// variant root or any fork descendant. The thread id is allocated by the
// ordered clone syscall, so the spawned threads correspond across variants.
// It returns a handle for joining.
//
// Spawn returns nil when the tree's thread-id space is exhausted (tids are
// never recycled, and the monitor's per-tid rings are sized MaxThreads):
// the clone syscall fails with EAGAIN at the same ordered position in every
// variant, so the degradation is itself deterministic — a worker that
// cannot grow its pool keeps serving with the threads it has instead of
// diverging or dying.
//
// A signal stamped on the clone is delivered only after the child started:
// a clone racing a sibling's exit-group still created a kernel thread, and
// that thread must reach a syscall boundary of its own to unwind, or the
// process never finishes exiting.
func (t *Thread) Spawn(fn func(*Thread)) *ThreadHandle {
	ret := t.sess.mon.InvokeOn(t.vs.id, t.ID, t.proc, kernel.Call{
		Nr: kernel.SysClone, Args: [6]uint64{uint64(t.sess.opts.MaxThreads)}, Tid: t.ID})
	var h *ThreadHandle
	if ret.Ok() {
		tid := int(ret.Val)
		child := &Thread{ID: tid, sess: t.sess, vs: t.vs, proc: t.proc, sigs: t.sigs, ps: t.ps}
		h = &ThreadHandle{Tid: tid, done: make(chan struct{})}
		t.vs.wg.Add(1)
		t.ps.wg.Add(1)
		child.board().ThreadStart(tid)
		go func() {
			defer close(h.done)
			child.run(fn)
		}()
	}
	if ret.Sig != 0 {
		t.deliver(int(ret.Sig))
	}
	return h
}

// ThreadHandle joins a spawned vthread.
type ThreadHandle struct {
	Tid  int
	done chan struct{}
}

// Join blocks until the thread has exited.
func (h *ThreadHandle) Join() { <-h.done }

// Yield cedes the processor (sched_yield; unmonitored).
func (t *Thread) Yield() {
	t.syscall(kernel.SysSchedYield)
}

// ProcHandle is the parent-side handle of a forked process.
type ProcHandle struct {
	// Pid is the child's guest-visible pid (identical across variants),
	// the value to pass to Kill and Waitpid.
	Pid int
	// Tid is the child's initial thread id.
	Tid int
	ps  *procState
}

// Join blocks until EVERY thread of the child process has unwound in this
// variant — the initial thread and all its Spawn siblings, through their
// kernel exits, so the process is fully torn down (zombie or reaped, no
// thread still mid-syscall) when Join returns. It is a scheduling
// convenience for tests; the guest-visible way to synchronize with a
// child's death is Waitpid.
func (h *ProcHandle) Join() { h.ps.wg.Wait() }

// Fork creates a child PROCESS running fn as its initial thread: a fresh
// kernel process sharing this thread's open file descriptions (so a
// listening socket accepted on by the parent is accepted on by the child —
// the prefork server shape), inheriting the signal dispositions and
// blocked mask, with its own pid. The pid and the child's thread id are
// allocated inside the ordered fork syscall, so they are identical across
// variants. The child is a full process: fn may Spawn further threads. fn
// returning ends the WHOLE process (implicit exit status 0, exit-group
// unwinding any still-running siblings at their next syscall boundary);
// Thread.Exit ends it early the same way.
//
// Fork returns nil when the tree's thread-id space is exhausted (tids are
// never recycled, and the monitor's per-tid rings are sized MaxThreads):
// the kernel-side child is exited immediately — identically in every
// variant, since the failing tid is itself deterministic — so the parent's
// next waitpid reaps it with status 0 and a long-lived re-forking server
// degrades to a smaller pool instead of dying. Exhaustion hit later, by a
// Spawn inside the child, surfaces as that Spawn returning nil (EAGAIN at
// the same ordered position in every variant) — same clean, deterministic
// degradation, one level down.
func (t *Thread) Fork(fn func(*Thread)) *ProcHandle {
	ret := t.syscall(kernel.SysFork)
	if !ret.Ok() {
		return nil
	}
	pid, tid := int(ret.Val), int(ret.Val2)
	childProc := t.proc.Child(pid)
	if childProc == nil {
		panic(fmt.Sprintf("core: forked child %d not found in this variant's process tree", pid))
	}
	if tid >= t.sess.opts.MaxThreads {
		// Exit the never-to-run child directly against this variant's
		// kernel (deterministic: every variant takes this branch at the
		// same fork). No vthread exists to route it through the monitor.
		t.sess.kern.Do(childProc, kernel.Call{Nr: kernel.SysExit})
		return nil
	}
	ps := &procState{}
	ps.wg.Add(1)
	child := &Thread{ID: tid, sess: t.sess, vs: t.vs,
		proc: childProc, sigs: t.sigs.clone(), ps: ps, leader: true}
	h := &ProcHandle{Pid: pid, Tid: tid, ps: ps}
	t.vs.wg.Add(1)
	child.board().ThreadStart(tid)
	go child.run(fn)
	return h
}

// Exit terminates the calling thread's PROCESS with the given status, like
// exit(2): descriptors close, the process turns zombie for its parent's
// waitpid, and SIGCHLD is posted. It does not return.
func (t *Thread) Exit(status int) {
	panic(procExit{status: status})
}

// Getpid returns the guest-visible process id (via the replicated getpid
// syscall, so every variant observes the master's — deterministic — pid).
func (t *Thread) Getpid() int {
	return int(t.syscall(kernel.SysGetpid).Val)
}

// Sigaction installs h as the handler for signo (h runs on whichever
// thread of the process is at a syscall boundary when the signal is
// delivered), or restores the default disposition when h is nil. It
// returns false for an invalid signo (SIGKILL included).
//
// For installs, the Go handler enters the table BEFORE the ordered kernel
// syscall flips the disposition: any delivery that can observe disposition
// SigHandler therefore also finds the handler, in every variant — the
// reverse order opened a window where a concurrent kill terminated one
// variant's process while the other ran the handler. (Removing or
// replacing a handler while another thread may be concurrently receiving
// that same signal remains a guest-program race, exactly as with real
// sigaction.)
func (t *Thread) Sigaction(signo int, h func(*Thread, int)) bool {
	disp := uint64(kernel.SigDfl)
	var old func(*Thread, int)
	if h != nil {
		disp = kernel.SigHandler
		old = t.sigs.set(signo, h)
	}
	if !t.syscall(kernel.SysSigaction, uint64(signo), disp).Ok() {
		if h != nil {
			t.sigs.set(signo, old) // the kernel rejected it; undo
		}
		return false
	}
	if h == nil {
		t.sigs.set(signo, nil)
	}
	return true
}

// IgnoreSignal sets signo's disposition to SIG_IGN: pending and future
// instances are discarded without delivery.
func (t *Thread) IgnoreSignal(signo int) bool {
	if !t.syscall(kernel.SysSigaction, uint64(signo), kernel.SigIgn).Ok() {
		return false
	}
	t.sigs.set(signo, nil)
	return true
}

// Kill posts signo to process pid (of this thread's variant tree). The
// (pid, signo) pair is compared across variants: a variant signalling a
// different target or signal diverges before anything is delivered.
func (t *Thread) Kill(pid, signo int) kernel.Errno {
	return t.syscall(kernel.SysKill, uint64(pid), uint64(signo)).Err
}

// Wait blocks until any child process exits and reaps it, returning its
// pid and exit status. Errno is ECHILD when no children remain, EINTR when
// a deliverable signal interrupted the wait (the handler has already run;
// callers typically retry).
func (t *Thread) Wait() (pid, status int, errno kernel.Errno) {
	return t.Waitpid(-1)
}

// Waitpid is Wait for one specific child pid (or any child when pid < 0).
func (t *Thread) Waitpid(pid int) (int, int, kernel.Errno) {
	sel := kernel.WaitAny
	if pid >= 0 {
		sel = uint64(pid)
	}
	ret := t.syscall(kernel.SysWaitpid, sel)
	if !ret.Ok() {
		return 0, 0, ret.Err
	}
	return int(ret.Val), int(ret.Val2), kernel.OK
}
