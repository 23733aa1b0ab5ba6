package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/kernel"
)

// The process-lifecycle suite: fork/wait/kill with deterministic,
// syscall-boundary signal delivery (DESIGN.md §2.5). Everything here runs
// with >= 2 variants under the strict policy — the point is that process
// events are replicated events, so none of it may diverge unless the test
// makes the variants genuinely disagree.

func TestForkWaitReapsChild(t *testing.T) {
	var childPid, waitedPid, status int
	prog := Program{Name: "fork-wait", Main: func(th *Thread) {
		h := th.Fork(func(c *Thread) {
			fd := c.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/child")).Val
			c.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte("from-child"))
			c.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
			c.Exit(7)
		})
		var wp, st int
		var errno kernel.Errno
		for {
			wp, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if errno != kernel.OK {
			t.Errorf("wait: %v", errno)
		}
		// All children reaped: a further wait reports ECHILD.
		if _, _, errno := th.Wait(); errno != kernel.ECHILD {
			t.Errorf("wait after reap: %v, want ECHILD", errno)
		}
		if th.IsMaster() {
			childPid, waitedPid, status = h.Pid, wp, st
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 5}, prog)
	if res.Divergence != nil {
		t.Fatalf("fork/wait diverged: %v", res.Divergence)
	}
	if childPid != 2 {
		t.Fatalf("child pid = %d, want the deterministic 2", childPid)
	}
	if waitedPid != childPid || status != 7 {
		t.Fatalf("waitpid = (%d, %d), want (%d, 7)", waitedPid, status, childPid)
	}
}

func TestForkPidsAreDeterministic(t *testing.T) {
	// Three sequential forks must hand out pids 2, 3, 4 in every variant
	// (fork is ordered, the namespace counter marches in lockstep).
	var pids []int
	prog := Program{Name: "fork-pids", Main: func(th *Thread) {
		var hs []*ProcHandle
		for i := 0; i < 3; i++ {
			hs = append(hs, th.Fork(func(c *Thread) {}))
		}
		for range hs {
			for {
				if _, _, errno := th.Wait(); errno != kernel.EINTR {
					break
				}
			}
		}
		if th.IsMaster() {
			for _, h := range hs {
				pids = append(pids, h.Pid)
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if fmt.Sprint(pids) != "[2 3 4]" {
		t.Fatalf("pids = %v, want [2 3 4]", pids)
	}
}

// awaitParkedReaders holds the calling guest thread until a thread is asleep
// in a blocking read on each of the given pipe descriptors — the condition
// "the child is parked in its read", waited on rather than slept for (the
// kernel/poll_test.go pattern). Only the master's reads reach the kernel, so
// every variant's copy of the thread polls the master's pipes (the forking
// parent still holds the descriptors), between unmonitored sched_yields: the
// variants may spin different numbers of times without diverging. A waiter is
// counted under its pipe's lock, so a kill issued afterwards finds it parked
// (or about to park, still holding the lock the kick needs), never at an
// earlier syscall boundary.
func awaitParkedReaders(th *Thread, rfds ...uint64) {
	master := th.sess.vars[0].proc
	for _, fd := range rfds {
		for master.PipeWaiters(int(fd)) == 0 {
			th.Yield()
		}
	}
}

// awaitAnyFile holds the calling guest thread until one of paths exists in
// the session's file system: "the interrupted read has returned", waited on
// the same way. The tests below need it between the kill and the write that
// feeds the parked read — a woken reader re-checks for data before it
// re-checks for signals (a read with data completes normally, as on Linux),
// so bytes written before the reader has unwound would turn its EINTR into a
// plain successful read.
func awaitAnyFile(th *Thread, paths ...string) {
	for {
		for _, p := range paths {
			if _, ok := th.sess.kern.ReadFile(p); ok {
				return
			}
		}
		th.Yield()
	}
}

func TestKillDuringBlockingReadEINTRsIdentically(t *testing.T) {
	// The acceptance-criteria regression: a signal delivered while a child
	// is parked in a blocking pipe read must EINTR the read, run the
	// handler, and let the retried read complete — identically in every
	// variant, with zero divergence. The handler's write syscall is itself
	// a compared event, so if delivery points differed across variants the
	// monitor would catch it.
	prog := Program{Name: "kill-eintr", Main: func(th *Thread) {
		pr := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
		rfd, wfd := pr.Val, pr.Val2
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(h *Thread, signo int) {
				fd := h.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/handled")).Val
				h.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("sig=%d", signo)))
				h.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
			})
			gotEINTR := false
			for {
				r := c.Syscall(kernel.SysRead, [6]uint64{rfd, 16}, nil)
				if r.Err == kernel.EINTR {
					gotEINTR = true
					continue
				}
				if !r.Ok() {
					c.Exit(3)
				}
				break
			}
			if !gotEINTR {
				c.Exit(2) // compared exit status: variants must agree
			}
			c.Exit(0)
		})
		// The child is parked in its read when this kill lands and cannot
		// pass it before (the pipe stays empty until the handler has run),
		// so the EINTR is guaranteed — deterministically, not
		// probabilistically.
		awaitParkedReaders(th, rfd)
		if errno := th.Kill(child.Pid, kernel.SIGUSR1); errno != kernel.OK {
			t.Errorf("kill: %v", errno)
		}
		awaitAnyFile(th, "/handled")
		th.Syscall(kernel.SysWrite, [6]uint64{wfd}, []byte("go"))
		var status int
		for {
			var errno kernel.Errno
			_, status, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if status != 0 {
			t.Errorf("child status = %d, want 0 (EINTR observed, read retried)", status)
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true, Seed: 11}, prog)
	if res.Divergence != nil {
		t.Fatalf("kill-during-read diverged: %v", res.Divergence)
	}
}

func TestKillDuringBlockingReadHandlerRan(t *testing.T) {
	// Companion to the EINTR test: prove the handler actually executed by
	// inspecting the session kernel's file system afterwards.
	kern := kernel.New()
	prog := Program{Name: "kill-eintr-handled", Main: func(th *Thread) {
		pr := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
		rfd, wfd := pr.Val, pr.Val2
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(h *Thread, signo int) {
				fd := h.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/handled")).Val
				h.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte("yes"))
				h.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
			})
			for {
				r := c.Syscall(kernel.SysRead, [6]uint64{rfd, 16}, nil)
				if r.Err == kernel.EINTR {
					continue
				}
				break
			}
		})
		awaitParkedReaders(th, rfd)
		th.Kill(child.Pid, kernel.SIGUSR1)
		awaitAnyFile(th, "/handled")
		th.Syscall(kernel.SysWrite, [6]uint64{wfd}, []byte("go"))
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if data, ok := kern.ReadFile("/handled"); !ok || string(data) != "yes" {
		t.Fatalf("handler did not run: %q %v", data, ok)
	}
}

func TestMismatchedKillSignoDiverges(t *testing.T) {
	// A variant signalling a different signo is an attack, not noise: the
	// compared (pid, signo) args trip divergence before delivery.
	prog := Program{Name: "evil-signo", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(*Thread, int) {})
			c.Sigaction(kernel.SIGUSR2, func(*Thread, int) {})
			for i := 0; i < 4; i++ {
				c.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
			}
		})
		signo := kernel.SIGUSR1
		if !th.IsMaster() {
			signo = kernel.SIGUSR2
		}
		th.Kill(child.Pid, signo)
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence == nil {
		t.Fatal("mismatched kill signo not detected")
	}
	if !strings.Contains(res.Divergence.Reason, "argument 1 mismatch") {
		t.Fatalf("unexpected reason: %v", res.Divergence)
	}
}

func TestMismatchedKillPidDiverges(t *testing.T) {
	prog := Program{Name: "evil-pid", Main: func(th *Thread) {
		a := th.Fork(func(c *Thread) { c.Sigaction(kernel.SIGUSR1, func(*Thread, int) {}) })
		b := th.Fork(func(c *Thread) { c.Sigaction(kernel.SIGUSR1, func(*Thread, int) {}) })
		target := a.Pid
		if !th.IsMaster() {
			target = b.Pid
		}
		th.Kill(target, kernel.SIGUSR1)
		for {
			if _, _, errno := th.Wait(); errno == kernel.ECHILD {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence == nil {
		t.Fatal("mismatched kill pid not detected")
	}
	if !strings.Contains(res.Divergence.Reason, "argument 0 mismatch") {
		t.Fatalf("unexpected reason: %v", res.Divergence)
	}
}

func TestTerminatingSignalEndsProcess(t *testing.T) {
	// SIGTERM with the default disposition terminates the child at its
	// next syscall boundary; the parent reaps status 128+15.
	var status int
	prog := Program{Name: "sigterm-default", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			for {
				c.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
			}
		})
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(2e6)}, nil)
		th.Kill(child.Pid, kernel.SIGTERM)
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if th.IsMaster() {
			status = st
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if status != 128+kernel.SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+kernel.SIGTERM)
	}
}

func TestTwoPendingTerminatingSignals(t *testing.T) {
	// Two different terminating signals pending at once: the first is
	// delivered and ends the process; the second must NOT be delivered at
	// the exit boundary (Linux discards a dying process's pending set) —
	// this used to escape the trampoline as a raw panic and crash the
	// embedder.
	var status int
	prog := Program{Name: "double-term", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			for {
				c.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
			}
		})
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(2e6)}, nil)
		th.Kill(child.Pid, kernel.SIGINT)
		th.Kill(child.Pid, kernel.SIGTERM)
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if th.IsMaster() {
			status = st
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Panic != nil {
		t.Fatalf("session recorded a program panic: %v", res.Panic)
	}
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	// SIGINT (2) is the lowest pending signal, so it wins the delivery.
	if status != 128+kernel.SIGINT {
		t.Fatalf("status = %d, want %d", status, 128+kernel.SIGINT)
	}
}

// awaitStat holds the calling guest thread until path exists. The polling
// goes through replicated stat syscalls: the master's branch outcomes
// replicate, so every variant's loop runs the same number of iterations —
// polling kern.ReadFile directly from guest code would give each variant
// its own timing and diverge.
func awaitStat(th *Thread, path string) {
	for {
		if th.Syscall(kernel.SysStat, [6]uint64{}, []byte(path)).Ok() {
			return
		}
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(5e5)}, nil)
	}
}

// touch creates path: the other side of awaitStat.
func touch(th *Thread, path string) {
	fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte(path)).Val
	th.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
}

func TestSigprocmaskDefersDelivery(t *testing.T) {
	// A blocked signal stays pending across syscall boundaries; unblocking
	// it delivers at the very next boundary (the sigprocmask return).
	kern := kernel.New()
	prog := Program{Name: "mask-defer", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			order := ""
			c.Sigaction(kernel.SIGUSR1, func(h *Thread, _ int) { order += "signal" })
			c.Syscall(kernel.SysSigprocmask, [6]uint64{kernel.SigBlock, 1 << kernel.SIGUSR1}, nil)
			// Tell the parent we are masked; it kills us, then announces.
			touch(c, "/masked")
			// Boundaries pass with the signal blocked and pending: wait
			// until the parent's kill has definitely landed.
			awaitStat(c, "/killed")
			order += "work"
			c.Syscall(kernel.SysSigprocmask, [6]uint64{kernel.SigUnblock, 1 << kernel.SIGUSR1}, nil)
			// Delivery happened at the unblock boundary, before this line.
			fd := c.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/order")).Val
			c.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(order))
			c.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
		})
		awaitStat(th, "/masked")
		th.Kill(child.Pid, kernel.SIGUSR1)
		touch(th, "/killed")
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if data, _ := kern.ReadFile("/order"); string(data) != "worksignal" {
		t.Fatalf("order = %q, want \"worksignal\" (delivery deferred past the masked region)", data)
	}
}

// TestIgnoredSignalsAreDiscarded covers SIG_IGN (Thread.IgnoreSignal): a
// signal a process ignores is discarded, whether it arrives while ignored
// or was already pending when the process chose to ignore it.
func TestIgnoredSignalsAreDiscarded(t *testing.T) {
	// waitStatus reaps the one child and returns its exit status.
	waitStatus := func(th *Thread) int {
		for {
			_, st, errno := th.Wait()
			if errno != kernel.EINTR {
				return st
			}
		}
	}
	t.Run("kill-while-ignored", func(t *testing.T) {
		// SIGTERM ends a process by default. Ignored, a kill of it neither
		// ends the child nor EINTRs the read it is parked in: the read
		// returns the parent's bytes and the child exits 0.
		status := -1
		prog := Program{Name: "sigign-kill", Main: func(th *Thread) {
			pr := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
			rfd, wfd := pr.Val, pr.Val2
			child := th.Fork(func(c *Thread) {
				if !c.IgnoreSignal(kernel.SIGTERM) {
					c.Exit(4)
				}
				r := c.Syscall(kernel.SysRead, [6]uint64{rfd, 16}, nil)
				switch {
				case r.Err == kernel.EINTR:
					c.Exit(2)
				case !r.Ok() || string(r.Data) != "go":
					c.Exit(3)
				}
				c.Exit(0)
			})
			awaitParkedReaders(th, rfd)
			if errno := th.Kill(child.Pid, kernel.SIGTERM); errno != kernel.OK {
				t.Errorf("kill: %v", errno)
			}
			// The kill kicked the parked reader. A delivered SIGTERM would
			// end the child, or EINTR its read, while the pipe is still
			// empty; this sleep gives it the time to.
			th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(5e6)}, nil)
			th.Syscall(kernel.SysWrite, [6]uint64{wfd}, []byte("go"))
			if st := waitStatus(th); th.IsMaster() {
				status = st
			}
		}}
		res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 3}, prog)
		if res.Divergence != nil {
			t.Fatalf("diverged: %v", res.Divergence)
		}
		if status != 0 {
			t.Fatalf("child status = %d, want 0 (2: read EINTRed, %d: SIGTERM delivered)", status, 128+kernel.SIGTERM)
		}
	})
	t.Run("ignore-discards-pending", func(t *testing.T) {
		// A SIGUSR1 that is pending while blocked is discarded when the
		// process ignores it, so a handler installed afterwards and then
		// unblocked never runs.
		status := -1
		prog := Program{Name: "sigign-pending", Main: func(th *Thread) {
			child := th.Fork(func(c *Thread) {
				ran := false
				c.Syscall(kernel.SysSigprocmask, [6]uint64{kernel.SigBlock, 1 << kernel.SIGUSR1}, nil)
				touch(c, "/masked")
				awaitStat(c, "/killed") // SIGUSR1 is pending and blocked
				c.IgnoreSignal(kernel.SIGUSR1)
				c.Sigaction(kernel.SIGUSR1, func(*Thread, int) { ran = true })
				// The unblock's return is a boundary: a SIGUSR1 still
				// pending would be delivered there, or at the getpid.
				c.Syscall(kernel.SysSigprocmask, [6]uint64{kernel.SigUnblock, 1 << kernel.SIGUSR1}, nil)
				c.Getpid()
				if ran {
					c.Exit(2)
				}
				c.Exit(0)
			})
			awaitStat(th, "/masked")
			if errno := th.Kill(child.Pid, kernel.SIGUSR1); errno != kernel.OK {
				t.Errorf("kill: %v", errno)
			}
			touch(th, "/killed")
			if st := waitStatus(th); th.IsMaster() {
				status = st
			}
		}}
		res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
		if res.Divergence != nil {
			t.Fatalf("diverged: %v", res.Divergence)
		}
		if status != 0 {
			t.Fatalf("child status = %d, want 0 (2: the handler ran for a signal sent before SIG_IGN)", status)
		}
	})
}

func TestForkSharesDescriptionsAcrossProcesses(t *testing.T) {
	// The child inherits the parent's descriptors as SHARED descriptions:
	// a read offset moved by the child is observed by the parent, like
	// Linux fork + read.
	kern := kernel.New()
	kern.WriteFile("/shared", []byte("aabb"))
	prog := Program{Name: "fork-fd-share", Main: func(th *Thread) {
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, []byte("/shared")).Val
		th.Fork(func(c *Thread) {
			c.Syscall(kernel.SysRead, [6]uint64{fd, 2}, nil) // moves the shared offset
		})
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
		r := th.Syscall(kernel.SysRead, [6]uint64{fd, 2}, nil)
		out := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/tail")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{out}, r.Data)
		th.Syscall(kernel.SysClose, [6]uint64{out}, nil)
		th.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if data, _ := kern.ReadFile("/tail"); string(data) != "bb" {
		t.Fatalf("parent read %q after child's read, want \"bb\" (shared offset)", data)
	}
}

func TestRecordReplaySignalSchedule(t *testing.T) {
	// A recorded session's signal schedule (EINTR points, deliveries)
	// replays deterministically offline — trace wire format v3 carries
	// Ret.Sig.
	prog := Program{Name: "rec-signals", Main: func(th *Thread) {
		pr := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
		rfd, wfd := pr.Val, pr.Val2
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(h *Thread, _ int) {
				h.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
			})
			for {
				r := c.Syscall(kernel.SysRead, [6]uint64{rfd, 8}, nil)
				if r.Err == kernel.EINTR {
					continue
				}
				break
			}
		})
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(2e6)}, nil)
		th.Kill(child.Pid, kernel.SIGUSR1)
		th.Syscall(kernel.SysWrite, [6]uint64{wfd}, []byte("go"))
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	rec := runWithTimeout(t, Options{Variants: 2, Record: true}, prog)
	if rec.Divergence != nil {
		t.Fatalf("record run diverged: %v", rec.Divergence)
	}
	if rec.Trace == nil {
		t.Fatal("no trace captured")
	}
	rep := runWithTimeout(t, Options{Replay: rec.Trace}, prog)
	if rep.Divergence != nil {
		t.Fatalf("replay diverged: %v", rep.Divergence)
	}
}

// --- Multi-threaded forked processes ---------------------------------------
//
// Forked children are full processes: Spawn works inside them, tids come
// from the same per-variant space (so allocation is deterministic across
// variants), exit-group unwinds sibling threads at their next syscall
// boundary, and ProcHandle.Join waits for the whole teardown.

func TestSpawnInForkedChild(t *testing.T) {
	// A forked child grows a thread pool and every thread's syscalls are
	// monitored like the root's. Each thread writes a per-tid file, the
	// leader joins them and exits cleanly.
	kern := kernel.New()
	var status int
	prog := Program{Name: "fork-then-spawn", Main: func(th *Thread) {
		h := th.Fork(func(c *Thread) {
			var sibs []*ThreadHandle
			for i := 0; i < 3; i++ {
				s := c.Spawn(func(s *Thread) {
					fd := s.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly},
						[]byte(fmt.Sprintf("/thread-%d", s.ID))).Val
					s.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte("ran"))
					s.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
				})
				if s == nil {
					t.Error("Spawn in forked child returned nil with tid space to spare")
					return
				}
				sibs = append(sibs, s)
			}
			for _, s := range sibs {
				s.Join()
			}
			c.Exit(0)
		})
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if th.IsMaster() {
			status = st
		}
		_ = h
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("multi-threaded child diverged: %v", res.Divergence)
	}
	if status != 0 {
		t.Fatalf("child status = %d, want 0", status)
	}
	// The fork leader drew tid 1 from the tree-wide space; its spawns take
	// 2, 3, 4 — deterministically, because clone is an ordered call.
	for tid := 2; tid <= 4; tid++ {
		if data, ok := kern.ReadFile(fmt.Sprintf("/thread-%d", tid)); !ok || string(data) != "ran" {
			t.Fatalf("thread %d left no trace (%q, %v) — tid allocation not deterministic?", tid, data, ok)
		}
	}
}

func TestSpawnExhaustionInForkedChildDegradesIdentically(t *testing.T) {
	// Tid exhaustion inside a forked child is a clean, deterministic
	// degrade: Spawn returns nil at the same ordered position in every
	// variant (the clone's EAGAIN is a replicated result, not a host
	// resource race), and the child keeps running with the threads it got.
	// The spawned count rides the compared exit status, so a variant that
	// degraded at a different point would diverge rather than pass.
	prog := Program{Name: "spawn-exhaustion", Main: func(th *Thread) {
		h := th.Fork(func(c *Thread) {
			spawned := 0
			var sibs []*ThreadHandle
			for i := 0; i < 8; i++ {
				s := c.Spawn(func(s *Thread) {
					s.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
				})
				if s == nil {
					break
				}
				spawned++
				sibs = append(sibs, s)
			}
			// Exhaustion is sticky: the space never shrinks back.
			if c.Spawn(func(*Thread) {}) != nil {
				c.Exit(99)
			}
			for _, s := range sibs {
				s.Join()
			}
			c.Exit(spawned)
		})
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		// MaxThreads 5: the fork leader drew tid 1, spawns take 2, 3, 4 —
		// then the space hits the limit and clone returns EAGAIN.
		if st != 3 {
			t.Errorf("child spawned %d threads before exhaustion, want 3", st)
		}
		_ = h
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, MaxThreads: 5}, prog)
	if res.Divergence != nil {
		t.Fatalf("exhaustion degrade diverged: %v", res.Divergence)
	}
}

func TestProcHandleJoinWaitsForFullTeardown(t *testing.T) {
	// Join's contract: when it returns, EVERY thread of the child — the
	// leader and all Spawn siblings — has unwound through its kernel exit.
	// The siblings here park in an infinite sleep loop, so the only way
	// they die is the leader-return exit-group; Join returning while any
	// of them was still mid-unwind would show live threads below.
	kern := kernel.New()
	var threads int
	state := "missing"
	prog := Program{Name: "join-teardown", Main: func(th *Thread) {
		h := th.Fork(func(c *Thread) {
			for i := 0; i < 3; i++ {
				c.Spawn(func(s *Thread) {
					fd := s.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly},
						[]byte(fmt.Sprintf("/sib-%d", s.ID))).Val
					s.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte("up"))
					s.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
					for {
						s.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e5)}, nil)
					}
				})
			}
			// Leader return = whole-process exit: the exit-group reaches
			// every parked sibling at its next sleep boundary.
		})
		h.Join()
		// Single variant: the snapshot below is exactly this variant's
		// process table at the instant Join returned.
		for _, p := range kern.Snapshot() {
			if p.Vpid == h.Pid {
				threads, state = p.Threads, p.State
			}
		}
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 1, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if threads != 0 || state != "zombie" {
		t.Fatalf("at Join return the child had %d live threads in state %q, want 0/zombie (Join returned early)", threads, state)
	}
	// The siblings really started before dying: their startup writes are
	// sequenced before the parked sleeps.
	for tid := 2; tid <= 4; tid++ {
		if _, ok := kern.ReadFile(fmt.Sprintf("/sib-%d", tid)); !ok {
			t.Fatalf("sibling tid %d never started", tid)
		}
	}
}

func TestSigtermToMultithreadedWorkerUnwindsSiblings(t *testing.T) {
	// The satellite acceptance: SIGTERM with default disposition against a
	// 4-thread process terminates the WHOLE process — the delivery thread
	// dies at its boundary and the exit-group pseudo-signal unwinds every
	// parked sibling at its next syscall boundary, identically in both
	// variants. Afterwards nothing of the child remains: reaped, no
	// zombies, no threads.
	kern := kernel.New()
	var status int
	prog := Program{Name: "sigterm-multithreaded", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			for i := 0; i < 3; i++ {
				c.Spawn(func(s *Thread) {
					for {
						s.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
					}
				})
			}
			for {
				c.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
			}
		})
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(2e6)}, nil)
		th.Kill(child.Pid, kernel.SIGTERM)
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if th.IsMaster() {
			status = st
		}
		if _, _, errno := th.Wait(); errno != kernel.ECHILD {
			t.Errorf("wait after reap: %v, want ECHILD", errno)
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("multi-threaded SIGTERM diverged: %v", res.Divergence)
	}
	if status != 128+kernel.SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+kernel.SIGTERM)
	}
	// Only the two variant roots survive: the child and all four of its
	// threads are gone from both variants' tables.
	if n := kern.ProcCount(); n != 2 {
		t.Fatalf("%d processes left, want the 2 roots", n)
	}
}

func TestSpawnAfterExitGroupStillUnwinds(t *testing.T) {
	// A clone issued after a sibling raised the exit-group still creates a
	// kernel thread, and its boundary carries the exit-group marker. Spawn
	// must start that thread so it unwinds too; otherwise the process
	// stays "exiting" forever and its parent's waitpid never returns (the
	// prefork worker that dies serving /quit while its initial thread grows
	// the accept pool).
	kern := kernel.New()
	var status int
	prog := Program{Name: "spawn-after-exit-group", Main: func(th *Thread) {
		th.Fork(func(c *Thread) {
			c.Spawn(func(s *Thread) { s.Exit(3) }).Join()
			c.Spawn(func(*Thread) {})
			t.Error("the spawning thread survived its process's exit-group")
		})
		var st int
		for {
			var errno kernel.Errno
			_, st, errno = th.Wait()
			if errno != kernel.EINTR {
				break
			}
		}
		if th.IsMaster() {
			status = st
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if status != 3 {
		t.Fatalf("status = %d, want 3", status)
	}
	if n := kern.ProcCount(); n != 2 {
		t.Fatalf("%d processes left, want the 2 roots", n)
	}
}

func TestSignalIntoMultithreadedProcEINTRsOneThreadIdentically(t *testing.T) {
	// Four threads of one forked process park in blocking reads on four
	// separate pipes; a single SIGUSR1 EINTRs exactly ONE of them — and
	// which one is the master's choice, replicated to the slave through the
	// stamped Ret.Sig, so the "/eintr-<tid>" marker the interrupted thread
	// writes is a compared event that would diverge if the variants
	// disagreed on the delivery thread.
	kern := kernel.New()
	prog := Program{Name: "mt-eintr", Main: func(th *Thread) {
		var rfd, wfd [4]uint64
		for i := range rfd {
			pr := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
			rfd[i], wfd[i] = pr.Val, pr.Val2
		}
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(*Thread, int) {})
			park := func(s *Thread, fd uint64) {
				for {
					r := s.Syscall(kernel.SysRead, [6]uint64{fd, 4}, nil)
					if r.Err == kernel.EINTR {
						mfd := s.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly},
							[]byte(fmt.Sprintf("/eintr-%d", s.ID))).Val
						s.Syscall(kernel.SysWrite, [6]uint64{mfd}, []byte("interrupted"))
						s.Syscall(kernel.SysClose, [6]uint64{mfd}, nil)
						continue
					}
					return
				}
			}
			var sibs []*ThreadHandle
			for i := 1; i < 4; i++ {
				fd := rfd[i]
				sibs = append(sibs, c.Spawn(func(s *Thread) { park(s, fd) }))
			}
			park(c, rfd[0])
			for _, s := range sibs {
				s.Join()
			}
			c.Exit(0)
		})
		// All four threads are parked in their reads before the signal is
		// sent, and the pipes hold no bytes until an interrupted thread has
		// left its marker, so the signal can only land as an EINTR.
		awaitParkedReaders(th, rfd[:]...)
		th.Kill(child.Pid, kernel.SIGUSR1)
		awaitAnyFile(th, "/eintr-1", "/eintr-2", "/eintr-3", "/eintr-4")
		for i := range wfd {
			th.Syscall(kernel.SysWrite, [6]uint64{wfd[i]}, []byte("go"))
		}
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("multi-threaded EINTR diverged: %v", res.Divergence)
	}
	// Exactly one of the four threads (tids 1..4) observed the interrupt.
	marked := 0
	for tid := 1; tid <= 4; tid++ {
		if _, ok := kern.ReadFile(fmt.Sprintf("/eintr-%d", tid)); ok {
			marked++
		}
	}
	if marked != 1 {
		t.Fatalf("%d threads observed EINTR, want exactly 1", marked)
	}
}

func TestSignalHandlerRunsOnDeterministicThread(t *testing.T) {
	// Process-directed signal into a 4-thread worker: the handler runs on
	// whichever thread's syscall boundary the master stamped — and the
	// handler records that thread's tid through a compared write, so both
	// variants provably agree on the delivery thread.
	kern := kernel.New()
	prog := Program{Name: "mt-handler-tid", Main: func(th *Thread) {
		child := th.Fork(func(c *Thread) {
			c.Sigaction(kernel.SIGUSR1, func(h *Thread, _ int) {
				fd := h.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/sigtid")).Val
				h.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("tid=%d", h.ID)))
				h.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
			})
			spin := func(s *Thread) {
				for i := 0; i < 12; i++ {
					s.Syscall(kernel.SysNanosleep, [6]uint64{uint64(1e6)}, nil)
				}
			}
			var sibs []*ThreadHandle
			for i := 0; i < 3; i++ {
				sibs = append(sibs, c.Spawn(spin))
			}
			spin(c)
			for _, s := range sibs {
				s.Join()
			}
			c.Exit(0)
		})
		th.Syscall(kernel.SysNanosleep, [6]uint64{uint64(3e6)}, nil)
		th.Kill(child.Pid, kernel.SIGUSR1)
		for {
			if _, _, errno := th.Wait(); errno != kernel.EINTR {
				break
			}
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, Kernel: kern, MaxThreads: 16}, prog)
	if res.Divergence != nil {
		t.Fatalf("handler-thread determinism diverged: %v", res.Divergence)
	}
	data, ok := kern.ReadFile("/sigtid")
	if !ok || !strings.HasPrefix(string(data), "tid=") {
		t.Fatalf("handler never recorded its thread: %q %v", data, ok)
	}
}
