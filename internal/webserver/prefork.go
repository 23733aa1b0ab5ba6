package webserver

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
)

// The prefork serving mode: the nginx/Apache master-worker process model
// on top of the simulated kernel's fork/wait/kill subsystem (DESIGN.md
// §2.5). The parent process binds the listener and forks cfg.Workers
// child PROCESSES; every worker inherits a copy of the listening
// descriptor (fork copies the table; the open descriptions behind the
// entries are shared) and runs cfg.WorkerThreads
// accept→serve loops (one per thread). The parent then becomes a reaper:
// it blocks in waitpid, and any worker that dies abnormally — a /quit
// request, a self-inflicted SIGTERM via /killme, a crash — is immediately
// replaced by a fresh fork, so worker death is a survivable, in-protocol
// event rather than an outage.
//
// The parent also speaks a zero-downtime HOT-RESTART protocol (DESIGN.md
// §9). SIGHUP starts a new worker GENERATION ("epoch"): the parent
// re-randomizes the variant layout (core.Thread.RefreshLayout) so the new
// generation's handler code lands at fresh addresses, binds a new listener
// over the old one with the kernel's takeover listen (which atomically
// swaps the port binding and closes the old listener), forks a full set of
// new-epoch workers, waits for each to signal readiness on a pipe, and
// only then publishes the new epoch in EpochFile. The OLD generation needs
// no signal at all: its parked accepts wake when the takeover closes its
// listener, drain whatever that backlog still holds, finish their
// in-flight requests, and exit on the accept EINVAL — while every
// connection that raced the swap lands in the new listener's backlog (the
// kernel migrates stragglers and re-chases refused connects), so no
// request is dropped across the restart.
//
// Under the MVEE every piece of this is deterministic: fork hands out the
// same pids and tids in every variant (ordered call), the master's waitpid
// results and signal-delivery points are replicated, and kill's (pid,
// signo) arguments are compared — a variant signalling a different worker
// is divergence, not noise.

// Worker exit statuses. The parent replaces a CURRENT-epoch worker that
// exits with any status other than shutdownExit or drainExit; workers of
// displaced epochs are never replaced, whatever they report.
const (
	// shutdownExit: the listener closed underneath the worker and no newer
	// epoch exists — the whole server is shutting down.
	shutdownExit = 0
	// quitExit: deliberate worker suicide (/quit); the parent re-forks.
	quitExit = 1
	// drainExit: the worker drained out because a hot restart displaced
	// its generation's listener. Best-effort: an old worker that exits
	// before the parent publishes the new epoch reports shutdownExit, and
	// the parent's own epoch table — not this status — is what guarantees
	// drained workers are not re-forked.
	drainExit = 2
)

// epochSeed derives the diversity-refresh seed of a generation: a pure
// function of the epoch number, so every variant shifts its layout from
// the same seed at the same ordered position (the per-variant salt lives
// in variant.Space.EpochShift).
func epochSeed(epoch int) int64 { return int64(epoch)*104729 + 1 }

func runPreforkServer(t *core.Thread, cfg Config) {
	// Built BEFORE the forks: workers inherit the parent's (variant-local)
	// handler address — exactly like a real prefork server's workers
	// inherit the parent's code layout — AND the parent's open page-file
	// descriptor (fork copies the table over the shared description), so
	// every worker serves with zero-copy sendfile at explicit offsets.
	// The handler address is re-derived per epoch after RefreshLayout,
	// which is the whole point of the diversity refresh; the page file is
	// epoch-invariant.
	srv := newPageSrv(t, cfg)
	handlerPtr := srv.handlerPtr

	sfd, ok := listen(t, cfg.Port, false)
	if !ok {
		return
	}

	// The reload flag is flipped by the SIGHUP handler and consumed at the
	// top of the reap loop. The parent is single-threaded and handlers run
	// at its own syscall boundaries, so no further synchronization exists
	// — or is needed.
	reload := false
	t.Sigaction(kernel.SIGHUP, func(*core.Thread, int) { reload = true })

	epoch := 0
	workerEpoch := make(map[int]int) // live worker pid → its epoch
	active := make(map[int]int)      // epoch → live worker count

	forkWorker := func(e int, fd, hp, readyR, readyW uint64) {
		// Each fork captures its own pageSrv COPY with the epoch's handler
		// address baked in: the parent mutates nothing a live worker reads.
		ws := *srv
		ws.handlerPtr = hp
		h := t.Fork(func(w *core.Thread) {
			preforkWorker(w, &ws, fd, e, readyR, readyW)
		})
		if h != nil { // nil: tid space exhausted — serve with fewer workers
			workerEpoch[h.Pid] = e
			active[e]++
		}
	}

	// startEpoch forks the current generation's full worker set, waits for
	// each worker to write its readiness byte (sent before any of its
	// threads accepts), then publishes the generation in EpochFile — so an
	// observer that sees epoch N there knows every worker of generation N
	// is up and about to accept.
	startEpoch := func() {
		pr := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
		rfd, wfd := pr.Val, pr.Val2
		if !pr.Ok() {
			rfd, wfd = 0, 0 // readiness degrades to "forked"; keep serving
		}
		for i := 0; i < cfg.Workers; i++ {
			forkWorker(epoch, sfd, handlerPtr, rfd, wfd)
		}
		for got, need := 0, active[epoch]; got < need && rfd != 0; {
			r := t.Syscall(kernel.SysRead, [6]uint64{rfd, 64}, nil)
			if r.Err == kernel.EINTR {
				continue // handler ran; reload consumed by the reap loop
			}
			if !r.Ok() || r.Val == 0 {
				break
			}
			got += int(r.Val)
		}
		if rfd != 0 {
			// Fork COPIES the descriptor table (over shared open file
			// descriptions), so this drops only the parent's references —
			// each worker closes its own inherited pair after signalling.
			t.Syscall(kernel.SysClose, [6]uint64{rfd}, nil)
			t.Syscall(kernel.SysClose, [6]uint64{wfd}, nil)
		}
		fd := t.Syscall(kernel.SysOpen,
			[6]uint64{kernel.OCreat | kernel.OWronly | kernel.OTrunc}, []byte(fleet.EpochFile))
		if fd.Ok() {
			t.Syscall(kernel.SysWrite, [6]uint64{fd.Val},
				fleet.FormatEpochState(epoch, epochSeed(epoch), active[epoch]))
			t.Syscall(kernel.SysClose, [6]uint64{fd.Val}, nil)
		}
	}
	startEpoch()

	// The reap loop: one waitpid per dead worker. EINTR (a signal landed
	// in the parent) re-checks the reload flag; ECHILD means every worker
	// exited cleanly after the listener closed — the server is done.
	for {
		if reload {
			reload = false
			epoch++
			t.RefreshLayout(epochSeed(epoch))
			handlerPtr = t.CodeAddr(64)
			// Takeover listen: atomically displace the old generation's
			// listener. From here the old epoch is draining and every new
			// connection reaches the new listener.
			nfd, ok := listen(t, cfg.Port, true)
			if !ok {
				break
			}
			// Drop the parent's descriptor for the displaced listener NOW,
			// before the new generation forks: the draining workers hold
			// their own copies, and anything still open here would be
			// inherited by every new-epoch worker as a stale fd.
			t.Syscall(kernel.SysClose, [6]uint64{sfd}, nil)
			sfd = nfd
			startEpoch()
			continue
		}
		pid, status, errno := t.Wait()
		if errno == kernel.EINTR {
			continue
		}
		if errno != kernel.OK {
			break
		}
		e, tracked := workerEpoch[pid]
		if !tracked {
			// A fork that degraded at tid exhaustion: the kernel-side child
			// exited without ever being counted. Nothing to replace.
			continue
		}
		delete(workerEpoch, pid)
		active[e]--
		if e != epoch {
			// A displaced generation's worker finished draining; it is not
			// replaced, whatever its exit status.
			if active[e] == 0 {
				delete(active, e)
			}
			continue
		}
		if status != shutdownExit && status != drainExit {
			forkWorker(epoch, sfd, handlerPtr, 0, 0)
		}
	}
}

// preforkWorker is one worker process: the initial thread signals
// readiness, grows the accept pool to cfg.WorkerThreads vthreads (tid
// exhaustion shrinks the pool instead of failing — Spawn returns nil at the
// same ordered position in every variant), serves, and — once the listener
// dies — joins its siblings so every in-flight request finishes before the
// process exits. Readiness goes first because a thread that accepts can
// die serving (/quit, /killme) and take the process with it: a worker gone
// before its readiness byte would leave the parent's startEpoch waiting
// forever on a pipe it holds open itself.
func preforkWorker(w *core.Thread, srv *pageSrv, sfd uint64,
	myEpoch int, readyR, readyW uint64) {
	if readyW != 0 {
		w.Syscall(kernel.SysWrite, [6]uint64{readyW}, []byte{'r'})
		// Drop the inherited pipe references: fork copied the parent's
		// descriptor table, so these copies are this process's to close
		// (the shared descriptions survive until the parent's read is
		// done). Leaving them open would fail the fd-quiescence invariant
		// long-lived workers are held to.
		w.Syscall(kernel.SysClose, [6]uint64{readyR}, nil)
		w.Syscall(kernel.SysClose, [6]uint64{readyW}, nil)
	}
	var sibs []*core.ThreadHandle
	for i := 1; i < srv.cfg.WorkerThreads; i++ {
		h := w.Spawn(func(tt *core.Thread) {
			workerAcceptLoop(tt, srv, sfd)
		})
		if h == nil {
			break
		}
		sibs = append(sibs, h)
	}
	workerAcceptLoop(w, srv, sfd)
	for _, h := range sibs {
		h.Join()
	}
	status := shutdownExit
	if e, ok := readPublishedEpoch(w); ok && e > myEpoch {
		status = drainExit
	}
	w.Exit(status)
}

// readPublishedEpoch reads EpochFile through replicated syscalls: the
// master's read decides the content every variant sees, so the epoch
// comparison branches identically everywhere.
func readPublishedEpoch(w *core.Thread) (int, bool) {
	fd := w.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, []byte(fleet.EpochFile))
	if !fd.Ok() {
		return 0, false
	}
	var r kernel.Ret
	for {
		r = w.Syscall(kernel.SysRead, [6]uint64{fd.Val, 128}, nil)
		if r.Err != kernel.EINTR {
			break
		}
	}
	w.Syscall(kernel.SysClose, [6]uint64{fd.Val}, nil)
	if !r.Ok() {
		return 0, false
	}
	e, _, _, ok := fleet.ParseEpochState(r.Data)
	return e, ok
}

// workerAcceptLoop is one worker thread: accept on the shared listener,
// serve the connection, repeat. A failed accept means this generation's
// listener died (shutdown, or a hot restart's takeover) and the loop
// returns with its in-flight request already finished.
func workerAcceptLoop(w *core.Thread, srv *pageSrv, sfd uint64) {
	// Per-thread request counter: prefork's answer to the thread-pool
	// mode's custom-lock-protected global — no sharing, no lock, and the
	// /count responses are deterministic because connection→thread
	// assignment is part of the replicated accept stream.
	var served uint32
	// Per-thread buffers: every request line lands in buf instead of in a
	// fresh exact-sized allocation, and respond builds /count in scratch.
	buf := make([]byte, recvBufSize)
	var scratch []byte
	for {
		fd, ok := accept(w, sfd)
		if !ok {
			return
		}
		if line := receive(w, fd, buf); line != nil {
			served++
			switch {
			case bytes.HasPrefix(line, []byte("GET /quit")):
				// Orderly worker suicide: the parent reaps status 1 and
				// forks a replacement. Exit-group unwinds any sibling
				// threads at their next syscall boundary.
				sendAll(w, fd, []byte("bye"))
				w.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
				w.Exit(quitExit)
			case bytes.HasPrefix(line, []byte("GET /killme")):
				// Signal-path worker death: the worker SIGTERMs itself. The
				// kill syscall's own boundary delivers the (unhandled,
				// terminating) signal, so the process exits with
				// 128+SIGTERM and the parent re-forks — the whole path runs
				// through the replicated signal schedule.
				sendAll(w, fd, []byte("bye"))
				w.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
				w.Kill(w.Getpid(), kernel.SIGTERM)
				continue
			}
			scratch = respond(w, srv, fd, line, served, scratch)
		}
		w.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	}
}
