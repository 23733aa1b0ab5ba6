package bugbench

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/synclib"
)

// Corpus returns the annotated bug reproductions, in a fixed order. Every
// deadlock entry forces its interleaving with explicit rendezvous (barriers
// or blocking reads), so the verdict — and for lock-shaped bugs the cycle —
// is the same for every seed. Tids are deterministic too: the main thread
// is t0 and Spawn/Fork allocate tids through the ordered clone/fork
// syscalls, so the Nth spawn is tid N in every variant of every run.
func Corpus() []Entry {
	return []Entry{
		{
			Name:  "double-lock",
			Annot: "expect=deadlock cycle=t0 expect-divergence=none",
			Main: func(t *core.Thread) {
				m := synclib.NewMutex(t)
				m.Lock(t)
				m.Lock(t) // non-recursive mutex re-acquired: waits on itself
			},
		},
		{
			Name:  "abba-inversion",
			Annot: "expect=deadlock cycle=t1,t2 expect-divergence=none",
			Main: func(t *core.Thread) {
				a, b := synclib.NewMutex(t), synclib.NewMutex(t)
				bar := synclib.NewBarrier(t, 2)
				t.Spawn(func(w *core.Thread) {
					a.Lock(w)
					bar.Wait(w) // both first locks held before either second
					b.Lock(w)
				})
				t.Spawn(func(w *core.Thread) {
					b.Lock(w)
					bar.Wait(w)
					a.Lock(w)
				})
			},
		},
		{
			Name:  "cond-lost-wakeup",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				m := synclib.NewMutex(t)
				c := synclib.NewCond(t)
				bar := synclib.NewBarrier(t, 2)
				t.Spawn(func(w *core.Thread) {
					bar.Wait(w) // the signal below has already fired
					m.Lock(w)
					c.Wait(w, m) // nothing will ever move the sequence again
				})
				c.Signal(t) // no waiter yet: the wakeup is lost
				bar.Wait(t)
			},
		},
		{
			Name:  "rwlock-upgrade",
			Annot: "expect=deadlock cycle=t0 expect-divergence=none",
			Main: func(t *core.Thread) {
				rw := synclib.NewRWMutex(t)
				rw.RLock(t)
				rw.Lock(t) // waits for readers to drain — including itself
			},
		},
		{
			Name:  "waitgroup-miscount",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				wg := synclib.NewWaitGroup(t)
				bar := synclib.NewBarrier(t, 2)
				wg.Add(t, 2) // two completions promised, one worker exists
				t.Spawn(func(w *core.Thread) {
					wg.Done(w)
					bar.Wait(w)
				})
				bar.Wait(t)
				wg.Wait(t) // the counter is stuck at 1
			},
		},
		{
			Name:  "pipe-read-cycle",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				p1 := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				p2 := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				// Each side reads before it writes: both consume-then-produce
				// loops start empty, so neither producer is ever reached.
				t.Spawn(func(w *core.Thread) {
					w.Syscall(kernel.SysRead, [6]uint64{p1.Val, 16}, nil)
					w.Syscall(kernel.SysWrite, [6]uint64{p2.Val2}, []byte("x"))
				})
				t.Spawn(func(w *core.Thread) {
					w.Syscall(kernel.SysRead, [6]uint64{p2.Val, 16}, nil)
					w.Syscall(kernel.SysWrite, [6]uint64{p1.Val2}, []byte("x"))
				})
			},
		},
		{
			Name:  "write-full-holding-lock",
			Annot: "expect=deadlock expect-divergence=none",
			// Two threads, and main is the drainer: nothing may EXIT while
			// the writer sleeps. A pipe write is an ordered call, so the
			// writer holds the §4.1 turn while asleep in the kernel, and a
			// sibling's thread-exit ticketed behind it waits for that turn
			// in the monitor — a wait that never registers, which left the
			// board one cell short of a verdict (DESIGN §11).
			Main: func(t *core.Thread) {
				pr := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				m := synclib.NewMutex(t)
				bar := synclib.NewBarrier(t, 2)
				t.Spawn(func(w *core.Thread) {
					m.Lock(w)
					bar.Wait(w)
					// Overfills the pipe and sleeps for space, lock held.
					w.Syscall(kernel.SysWrite, [6]uint64{pr.Val2}, make([]byte, 1<<20))
				})
				bar.Wait(t)
				m.Lock(t) // the drainer needs the lock the writer holds
				t.Syscall(kernel.SysRead, [6]uint64{pr.Val, 1 << 20}, nil)
				m.Unlock(t)
			},
		},
		{
			Name:  "barrier-desertion",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				bar := synclib.NewBarrier(t, 3)
				t.Spawn(func(w *core.Thread) { bar.Wait(w) })
				t.Spawn(func(w *core.Thread) { bar.Wait(w) })
				// The third party never arrives.
			},
		},
		{
			Name:  "fork-child-exit-lock",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				// The mutex models a lock in MAP_SHARED memory: the forked
				// child locks it and exits without unlocking (process exit
				// does not release userspace locks), orphaning it forever.
				m := synclib.NewMutex(t)
				ch := t.Fork(func(c *core.Thread) {
					m.Lock(c)
				})
				if ch == nil {
					return
				}
				t.Waitpid(ch.Pid) // child fully exited, lock still held
				m.Lock(t)
			},
		},
		{
			Name:  "eintr-masked-wait",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				pr := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				t.Sigaction(kernel.SIGUSR1, func(*core.Thread, int) {})
				ch := t.Fork(func(c *core.Thread) {
					// Child: waits for bytes that never come.
					c.Syscall(kernel.SysRead, [6]uint64{pr.Val, 16}, nil)
				})
				if ch == nil {
					return
				}
				// A self-signal can surface the first wait as EINTR; the
				// standard retry loop masks it and blocks again — the retried
				// wait must still count toward the verdict.
				t.Kill(t.Getpid(), kernel.SIGUSR1)
				for {
					if _, _, errno := t.Waitpid(ch.Pid); errno != kernel.EINTR {
						return // unreachable: the child never exits
					}
				}
			},
		},
		{
			Name:  "poll-self-cycle",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				pr := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				// Untimed poll on a pipe whose only writer is the poller
				// itself: readiness can never arrive from anywhere.
				buf := make([]byte, kernel.PollFDSize)
				kernel.EncodePollFD(buf, 0, int(pr.Val), kernel.PollIn)
				t.Syscall(kernel.SysPoll, [6]uint64{1, kernel.PollNoTimeout}, buf)
			},
		},
		{
			Name:  "semaphore-leak",
			Annot: "expect=deadlock expect-divergence=none",
			Main: func(t *core.Thread) {
				sem := synclib.NewSemaphore(t, 1)
				bar := synclib.NewBarrier(t, 2)
				t.Spawn(func(w *core.Thread) {
					sem.Acquire(w)
					bar.Wait(w) // exits without releasing
				})
				bar.Wait(t)
				sem.Acquire(t) // the count stays 0 forever
			},
		},
		{
			Name:  "once-reentry",
			Annot: "expect=deadlock cycle=t0 expect-divergence=none",
			Main: func(t *core.Thread) {
				o := synclib.NewOnce(t)
				var reenter func()
				reenter = func() {
					o.Do(t, func() {}) // waits for the in-flight Do: itself
				}
				o.Do(t, reenter)
			},
		},
		{
			Name:  "clean-mutex-handoff",
			Annot: "expect=clean expect-divergence=none",
			Main: func(t *core.Thread) {
				m := synclib.NewMutex(t)
				c := synclib.NewCond(t)
				ready := t.NewSyncVar()
				h := t.Spawn(func(w *core.Thread) {
					m.Lock(w)
					for w.Load(ready) == 0 {
						c.Wait(w, m)
					}
					m.Unlock(w)
				})
				m.Lock(t)
				t.Store(ready, 1)
				c.Broadcast(t)
				m.Unlock(t)
				h.Join()
			},
		},
		{
			Name:  "clean-pipe-pingpong",
			Annot: "expect=clean expect-divergence=none",
			Main: func(t *core.Thread) {
				p1 := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				p2 := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				const rounds = 50
				a := t.Spawn(func(w *core.Thread) {
					for i := 0; i < rounds; i++ {
						w.Syscall(kernel.SysWrite, [6]uint64{p1.Val2}, []byte{byte(i)})
						w.Syscall(kernel.SysRead, [6]uint64{p2.Val, 4}, nil)
					}
				})
				b := t.Spawn(func(w *core.Thread) {
					for i := 0; i < rounds; i++ {
						w.Syscall(kernel.SysRead, [6]uint64{p1.Val, 4}, nil)
						w.Syscall(kernel.SysWrite, [6]uint64{p2.Val2}, []byte{byte(i)})
					}
				})
				a.Join()
				b.Join()
			},
		},
		{
			Name:  "divergent-payload",
			Annot: "expect=divergence expect-divergence=any",
			Main: func(t *core.Thread) {
				// Writes a code address — diversified by ASLR/DCL, so the
				// variants' payloads differ and the monitor must flag a
				// divergence, NOT a deadlock: the corpus pins the two verdict
				// channels apart.
				pr := t.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], t.CodeAddr(64))
				t.Syscall(kernel.SysWrite, [6]uint64{pr.Val2}, buf[:])
			},
		},
	}
}
