package kernel

import "sync"

// Process lifecycle (DESIGN.md §2.5). Each variant's root Proc anchors a
// tree of forked processes sharing one pid namespace and one thread-id
// space. Both are allocated inside the monitor's ORDERED sections (fork is
// an ordered syscall), which is what makes pids and tids deterministic:
// every variant executes its ordered calls in the same total order, so the
// i-th fork of every variant draws the same pid and the same initial tid.
//
// Tree state (parent/children links, zombie status, the pid map) is
// guarded by the kernel-wide treeMu: process events are orders of
// magnitude rarer than I/O, so one lock for all trees is simpler than
// per-tree locks and cannot deadlock against the per-object locks (no
// kernel path acquires treeMu while holding a pipe or proc lock).

// Proc states.
const (
	procRunning = iota
	// procZombie: the process exited (its status is retained) but the
	// parent has not reaped it yet.
	procZombie
	// procReaped: waitpid consumed the zombie; the pid is gone from the
	// namespace and kill/waitpid on it return ESRCH/ECHILD.
	procReaped
)

// pidNamespace is one variant tree's pid allocator and lookup table. The
// root process is pid 1; children take 2, 3, … in fork order, which the
// ordered fork syscall makes identical across variants.
type pidNamespace struct {
	nextVpid int
	byVpid   map[int]*Proc
}

// tidSpace is one variant tree's thread-id allocator, shared by every
// process of the tree so the monitor's per-tid syscall rings stay unique
// across processes. Clone draws the spawning thread's tid from it; fork
// draws the child's initial tid. Both happen inside ordered sections.
type tidSpace struct {
	mu   sync.Mutex
	next int
}

func (ts *tidSpace) take() int {
	tid, _ := ts.takeLimited(0)
	return tid
}

// takeLimited allocates the next tid unless limit is nonzero and the space
// is exhausted (tids are never recycled — the monitor's per-tid rings are
// sized MaxThreads, which is the limit callers pass). Exhaustion is itself
// deterministic: allocation happens inside ordered sections, so the same
// clone of every variant is the one that fails.
func (ts *tidSpace) takeLimited(limit int) (int, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if limit > 0 && ts.next >= limit {
		return 0, false
	}
	tid := ts.next
	ts.next++
	return tid, true
}

// Parent returns the pid of p's parent process, or 0 for a root process.
func (p *Proc) Parent() int {
	if p.parent == nil {
		return 0
	}
	return p.parent.vpid
}

// Child resolves a pid in p's namespace to the live child process — the
// handle the core layer needs to run the forked child's threads against.
// Returns nil if the pid is unknown or already reaped.
func (p *Proc) Child(pid int) *Proc {
	kern := p.kern
	if kern == nil {
		return nil
	}
	kern.treeMu.Lock()
	defer kern.treeMu.Unlock()
	c := p.ns.byVpid[pid]
	if c == nil || c.state != procRunning {
		return nil
	}
	return c
}

// doFork implements SysFork: create a child process under a fresh
// deterministic pid, sharing the parent's open file descriptions (Linux
// fork semantics: the child's descriptors reference the SAME descriptions,
// so offsets, flags, and — crucially for prefork servers — the listening
// socket are shared; the object is released when the last descriptor
// across both processes closes). The child inherits the parent's blocked
// mask and dispositions with an empty pending set, and its own address
// space at the parent's diversified bases (fork does not re-randomize).
//
// Val is the child's pid, Val2 the child's initial thread id (drawn from
// the tree-wide tid space, inside this ordered call, so it matches across
// variants). The caller (core.Thread.Fork) looks the child Proc up via
// Proc.Child and launches its main vthread.
func (k *Kernel) doFork(parent *Proc) Ret {
	k.procMu.Lock()
	ipid := k.nextPid
	k.nextPid++
	k.procMu.Unlock()

	child := NewProc(ipid, NewAddressSpace(parent.AS.brkBase, parent.AS.mmapBase))
	child.kern = k
	child.tids = parent.tids
	// The detector covers the whole master tree: a forked child's threads
	// park at the same instrumented sites, on the same board.
	child.board = parent.board

	k.treeMu.Lock()
	child.ns = parent.ns
	child.vpid = parent.ns.nextVpid
	parent.ns.nextVpid++
	parent.ns.byVpid[child.vpid] = child
	child.parent = parent
	parent.children = append(parent.children, child)
	k.treeMu.Unlock()

	// Inherit the signal table: mask and dispositions copy, pending does
	// not (Linux fork semantics).
	parent.sigMu.Lock()
	child.sigBlocked.Store(parent.sigBlocked.Load())
	child.sigDisp = parent.sigDisp
	child.sigIgnored.Store(parent.sigIgnored.Load())
	parent.sigMu.Unlock()

	// Share the descriptor table: same descriptions, one more reference
	// each. The child is not yet visible to any other goroutine, so only
	// the parent's table needs its lock.
	parent.mu.Lock()
	for fd := 3; fd < len(parent.fdt.slots); fd++ {
		e := parent.fdt.get(fd)
		if e == nil {
			continue
		}
		e.refs.Add(1)
		child.fdt.install(fd, e)
	}
	parent.mu.Unlock()

	k.procMu.Lock()
	k.procs[ipid] = child
	k.procMu.Unlock()

	tid := parent.tids.take()
	return Ret{Val: uint64(child.vpid), Val2: uint64(tid)}
}

// doClone implements SysClone: allocate the new thread's tid from the
// tree-wide space and count the thread against the calling process. Both
// happen inside the monitor's ordered critical section, so corresponding
// threads get identical tids in every variant. Args[0] (optional, 0 = no
// limit) caps the tid space at the session's MaxThreads: exhaustion returns
// EAGAIN instead of allocating a tid the monitor has no ring for, and —
// because the failing clone occupies the same position in every variant's
// ordered stream — the degradation is identical across variants.
func (k *Kernel) doClone(p *Proc, c Call) Ret {
	tid, ok := p.tids.takeLimited(int(c.Args[0]))
	if !ok {
		return Ret{Err: EAGAIN}
	}
	k.treeMu.Lock()
	p.threads++
	k.treeMu.Unlock()
	return Ret{Val: uint64(tid)}
}

// doExit implements SysExit for a process — in two phases now that forked
// processes can be multi-threaded. The FIRST exiting thread raises the
// exit-group flag, records the status, and kicks every blocking site its
// siblings could be parked in: each sibling observes SigExitGroup at its
// next syscall boundary (or EINTRs out of a blocked op and then observes
// it) and unwinds through SysThreadExit. The LAST thread out — whichever
// of SysExit/SysThreadExit drops the live count to zero — performs the
// actual teardown (finishExit): descriptors close, the process turns
// zombie, SIGCHLD posts. Exit is idempotent: a call on a dead process is a
// no-op, and a second thread calling SysExit while the group is already
// exiting just retires itself.
func (k *Kernel) doExit(p *Proc, c Call) Ret {
	k.treeMu.Lock()
	if p.state != procRunning {
		k.treeMu.Unlock()
		return Ret{}
	}
	first := !p.exitGroup.Load()
	if first {
		p.exitGroup.Store(true)
		p.status = int(c.Args[0])
	}
	p.threads--
	last := p.threads <= 0
	k.treeMu.Unlock()

	if first && !last {
		// Interrupt siblings parked in blocking kernel ops so the
		// exit-group reaches them: they wake, their op returns EINTR, and
		// the boundary hands them SigExitGroup.
		k.signalKick(p)
	}
	if last {
		k.finishExit(p)
	}
	return Ret{}
}

// doThreadExit implements SysThreadExit: retire one thread. If the process
// is mid exit-group and this was the last live thread, complete the zombie
// transition.
func (k *Kernel) doThreadExit(p *Proc) Ret {
	k.treeMu.Lock()
	if p.state != procRunning {
		k.treeMu.Unlock()
		return Ret{}
	}
	p.threads--
	last := p.threads <= 0 && p.exitGroup.Load()
	k.treeMu.Unlock()
	if last {
		k.finishExit(p)
	}
	return Ret{}
}

// finishExit is the second phase of process exit, run by the last thread
// out: close every descriptor (shared descriptions decrement; the last
// reference releases the object, so a worker's exit never closes the
// listener its siblings still accept on), turn the process into a zombie
// carrying the recorded status, post SIGCHLD to the parent, and wake
// waiters. A process with no parent (the root, or an orphan) is reaped
// immediately — there is nobody to wait for it.
func (k *Kernel) finishExit(p *Proc) {
	k.treeMu.Lock()
	if p.state != procRunning {
		k.treeMu.Unlock()
		return
	}
	p.state = procZombie
	k.treeMu.Unlock()

	// Close descriptors outside treeMu (closing may release pipes, which
	// takes object locks).
	p.closeAllFDs()

	k.treeMu.Lock()
	// Orphan the children: init-style, their own exits self-reap.
	for _, c := range p.children {
		c.parent = nil
		if c.state == procZombie {
			k.reapLocked(c)
		}
	}
	p.children = p.children[:0]
	parent := p.parent
	if parent == nil || p.autoReap {
		k.reapLocked(p)
	}
	k.treeWake()
	k.treeMu.Unlock()

	if parent != nil {
		if parent.sendSignal(SIGCHLD) {
			// Only worth a kick if SIGCHLD is actually deliverable (a
			// handler is registered); the default disposition ignores it
			// and the treeCond broadcast above already wakes waitpid.
			if parent.signalPending() {
				k.signalKick(parent)
			}
		}
	}
}

// closeAllFDs releases every live descriptor of p (process exit).
func (p *Proc) closeAllFDs() {
	for fd := 3; fd < maxFDs; fd++ {
		p.closeFD(fd)
	}
}

// reapLocked erases a zombie from the namespace and the kernel's process
// table. Callers hold k.treeMu.
func (k *Kernel) reapLocked(z *Proc) {
	z.state = procReaped
	delete(z.ns.byVpid, z.vpid)
	if z.parent != nil {
		sibs := z.parent.children
		for i, c := range sibs {
			if c == z {
				sibs[i] = sibs[len(sibs)-1]
				z.parent.children = sibs[:len(sibs)-1]
				break
			}
		}
		z.parent = nil
	}
	k.procMu.Lock()
	delete(k.procs, z.Pid)
	k.procMu.Unlock()
}

// doWaitpid implements SysWaitpid: block until the selected child (Args[0];
// WaitAny for any) is a zombie, reap it, and return its pid (Val) and exit
// status (Val2). ECHILD when no matching child exists; EINTR when a
// deliverable signal arrives while blocked; EINTR also on session teardown
// (the caller's retry hits the monitor's kill check and unwinds).
//
// Only the master executes waitpid (it is a blocking replicated call); the
// slaves apply the master's reap through ApplySlaveWait so their process
// trees march in step.
func (k *Kernel) doWaitpid(p *Proc, c Call) Ret {
	sel := c.Args[0]
	w := p.blk(c.Tid, 0)
	k.treeMu.Lock()
	defer k.treeMu.Unlock()
	for {
		matched := false
		for _, child := range p.children {
			if sel != WaitAny && child.vpid != int(sel) {
				continue
			}
			matched = true
			if child.state == procZombie {
				pid, status := child.vpid, child.status
				k.reapLocked(child)
				return Ret{Val: uint64(pid), Val2: uint64(status)}
			}
		}
		if !matched {
			return Ret{Err: ECHILD}
		}
		// Session teardown also surfaces as EINTR: the caller's retry hits
		// the monitor's kill check. (stopped takes intMu under treeMu;
		// safe, since nothing acquires treeMu while holding intMu.)
		if w.interrupted() || k.stopped() {
			return Ret{Err: EINTR}
		}
		// The cell is registered under treeMu — the lock treeWake bumps the
		// sequence under.
		w.parkSeq(BlockWaitpid, sel, &k.treeSeq)
		k.treeCond.Wait()
		w.unpark()
	}
}

// ApplySlaveWait applies the master's waitpid result to a slave's process
// tree: reap child pid if it is already a zombie locally, or mark it for
// self-reaping at its exit. The marking handles the cross-ring skew the
// replication protocol allows — the slave's parent thread can consume the
// waitpid record before the slave's child thread has executed its own
// (per-variant) exit. The monitor calls this on every successfully
// replicated waitpid.
func (k *Kernel) ApplySlaveWait(p *Proc, pid int) {
	k.treeMu.Lock()
	defer k.treeMu.Unlock()
	child := p.ns.byVpid[pid]
	if child == nil {
		return
	}
	if child.state == procZombie {
		k.reapLocked(child)
		return
	}
	child.autoReap = true
}
