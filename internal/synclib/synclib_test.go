package synclib

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/kernel"
)

// run executes prog under the MVEE with the given agent and variant count,
// failing the test on divergence or deadlock.
func run(t *testing.T, kind agent.Kind, variants int, prog core.Program) *core.Session {
	t.Helper()
	s := core.NewSession(core.Options{
		Variants: variants, Agent: kind, ASLR: true, Seed: 11, MaxThreads: 32,
	}, prog)
	done := make(chan *core.Result, 1)
	go func() { done <- s.Run() }()
	select {
	case res := <-done:
		if res.Divergence != nil {
			t.Fatalf("%s under %v: divergence: %v", prog.Name, kind, res.Divergence)
		}
	case <-time.After(60 * time.Second):
		s.Kill()
		t.Fatalf("%s under %v: deadlock", prog.Name, kind)
	}
	return s
}

// checkFile asserts the program wrote want into path.
func checkFile(t *testing.T, s *core.Session, path, want string) {
	t.Helper()
	got, ok := s.Kernel().ReadFile(path)
	if !ok || string(got) != want {
		t.Fatalf("%s = %q, want %q", path, got, want)
	}
}

// writeResult is the canonical way test programs export a value: through a
// monitored write, so cross-variant equality is checked by the monitor too.
func writeResult(t *core.Thread, path, val string) {
	fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte(path)).Val
	t.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(val))
}

func agents() []agent.Kind {
	return []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks}
}

func TestMutexMutualExclusion(t *testing.T) {
	for _, k := range agents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := core.Program{Name: "mutex", Main: func(th *core.Thread) {
				mu := NewMutex(th)
				n := 0
				hs := make([]*core.ThreadHandle, 4)
				for i := range hs {
					hs[i] = th.Spawn(func(tt *core.Thread) {
						for j := 0; j < 250; j++ {
							mu.Lock(tt)
							n++
							mu.Unlock(tt)
						}
					})
				}
				for _, h := range hs {
					h.Join()
				}
				writeResult(th, "/n", fmt.Sprintf("%d", n))
			}}
			s := run(t, k, 2, prog)
			checkFile(t, s, "/n", "1000")
		})
	}
}

func TestSpinLock(t *testing.T) {
	prog := core.Program{Name: "spin", Main: func(th *core.Thread) {
		sl := NewSpinLock(th)
		n := 0
		hs := make([]*core.ThreadHandle, 4)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *core.Thread) {
				for j := 0; j < 100; j++ {
					sl.Lock(tt)
					n++
					sl.Unlock(tt)
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		writeResult(th, "/n", fmt.Sprintf("%d", n))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/n", "400")
}

func TestTryLockOutcomesReplicated(t *testing.T) {
	// TryLock outcomes must be identical across variants: the payload of
	// the result write encodes the outcome pattern, and the monitor
	// compares payloads.
	prog := core.Program{Name: "trylock", Main: func(th *core.Thread) {
		mu := NewMutex(th)
		pattern := make([]byte, 0, 64)
		holder := th.Spawn(func(tt *core.Thread) {
			for i := 0; i < 32; i++ {
				mu.Lock(tt)
				busy(300)
				mu.Unlock(tt)
				tt.Yield()
			}
		})
		for i := 0; i < 64; i++ {
			if mu.TryLock(th) {
				pattern = append(pattern, '1')
				mu.Unlock(th)
			} else {
				pattern = append(pattern, '0')
			}
		}
		holder.Join()
		writeResult(th, "/pattern", string(pattern))
	}}
	run(t, agent.WallOfClocks, 2, prog)
}

func TestCondProducerConsumer(t *testing.T) {
	for _, k := range agents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := core.Program{Name: "cond", Main: func(th *core.Thread) {
				mu := NewMutex(th)
				cv := NewCond(th)
				queue := 0
				total := 0
				const items = 100
				cons := th.Spawn(func(tt *core.Thread) {
					got := 0
					for got < items {
						mu.Lock(tt)
						for queue == 0 {
							cv.Wait(tt, mu)
						}
						queue--
						got++
						mu.Unlock(tt)
					}
					mu.Lock(tt)
					total += got
					mu.Unlock(tt)
				})
				for i := 0; i < items; i++ {
					mu.Lock(th)
					queue++
					cv.Signal(th)
					mu.Unlock(th)
				}
				cons.Join()
				writeResult(th, "/total", fmt.Sprintf("%d", total))
			}}
			s := run(t, k, 2, prog)
			checkFile(t, s, "/total", "100")
		})
	}
}

func TestBarrierPhases(t *testing.T) {
	for _, k := range agents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const workers = 4
			const phases = 10
			prog := core.Program{Name: "barrier", Main: func(th *core.Thread) {
				bar := NewBarrier(th, workers)
				mu := NewMutex(th)
				// phaseSum[p] accumulates contributions; a barrier bug
				// (phase bleed) corrupts the per-phase sums.
				phaseSums := make([]int, phases)
				hs := make([]*core.ThreadHandle, workers)
				for i := 0; i < workers; i++ {
					hs[i] = th.Spawn(func(tt *core.Thread) {
						for p := 0; p < phases; p++ {
							mu.Lock(tt)
							phaseSums[p]++
							mu.Unlock(tt)
							bar.Wait(tt)
						}
					})
				}
				for _, h := range hs {
					h.Join()
				}
				for p := 0; p < phases; p++ {
					if phaseSums[p] != workers {
						writeResult(th, "/bad", fmt.Sprintf("phase %d = %d", p, phaseSums[p]))
						return
					}
				}
				writeResult(th, "/ok", "all phases complete")
			}}
			s := run(t, k, 2, prog)
			checkFile(t, s, "/ok", "all phases complete")
		})
	}
}

func TestSemaphoreBoundsConcurrency(t *testing.T) {
	prog := core.Program{Name: "sem", Main: func(th *core.Thread) {
		sem := NewSemaphore(th, 2)
		mu := NewMutex(th)
		inside, maxInside := 0, 0
		hs := make([]*core.ThreadHandle, 6)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *core.Thread) {
				for j := 0; j < 20; j++ {
					sem.Acquire(tt)
					mu.Lock(tt)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					mu.Unlock(tt)
					busy(50)
					mu.Lock(tt)
					inside--
					mu.Unlock(tt)
					sem.Release(tt)
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		if maxInside > 2 {
			writeResult(th, "/max", fmt.Sprintf("VIOLATION %d", maxInside))
		} else {
			writeResult(th, "/max", "bounded")
		}
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/max", "bounded")
}

func TestRWMutexReadersDoNotExcludeEachOther(t *testing.T) {
	prog := core.Program{Name: "rwmutex", Main: func(th *core.Thread) {
		rw := NewRWMutex(th)
		mu := NewMutex(th)
		data := 0
		sum := 0
		hs := make([]*core.ThreadHandle, 4)
		for i := range hs {
			i := i
			hs[i] = th.Spawn(func(tt *core.Thread) {
				for j := 0; j < 50; j++ {
					if i == 0 { // one writer
						rw.Lock(tt)
						data++
						rw.Unlock(tt)
					} else { // readers
						rw.RLock(tt)
						v := data
						rw.RUnlock(tt)
						mu.Lock(tt)
						sum += v
						mu.Unlock(tt)
					}
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		writeResult(th, "/final", fmt.Sprintf("%d", data))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/final", "50")
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	for _, k := range agents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := core.Program{Name: "once", Main: func(th *core.Thread) {
				once := NewOnce(th)
				mu := NewMutex(th)
				inits := 0
				hs := make([]*core.ThreadHandle, 4)
				for i := range hs {
					hs[i] = th.Spawn(func(tt *core.Thread) {
						once.Do(tt, func() {
							mu.Lock(tt)
							inits++
							mu.Unlock(tt)
						})
					})
				}
				for _, h := range hs {
					h.Join()
				}
				writeResult(th, "/inits", fmt.Sprintf("%d", inits))
			}}
			s := run(t, k, 2, prog)
			checkFile(t, s, "/inits", "1")
		})
	}
}

func TestWaitGroup(t *testing.T) {
	prog := core.Program{Name: "waitgroup", Main: func(th *core.Thread) {
		wg := NewWaitGroup(th)
		mu := NewMutex(th)
		done := 0
		wg.Add(th, 4)
		for i := 0; i < 4; i++ {
			th.Spawn(func(tt *core.Thread) {
				busy(100)
				mu.Lock(tt)
				done++
				mu.Unlock(tt)
				wg.Done(tt)
			})
		}
		wg.Wait(th)
		writeResult(th, "/done", fmt.Sprintf("%d", done))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/done", "4")
}

func TestThreeAndFourVariants(t *testing.T) {
	for _, variants := range []int{3, 4} {
		variants := variants
		t.Run(fmt.Sprintf("%d-variants", variants), func(t *testing.T) {
			prog := core.Program{Name: "nvariants", Main: func(th *core.Thread) {
				mu := NewMutex(th)
				n := 0
				hs := make([]*core.ThreadHandle, 4)
				for i := range hs {
					hs[i] = th.Spawn(func(tt *core.Thread) {
						for j := 0; j < 100; j++ {
							mu.Lock(tt)
							n++
							mu.Unlock(tt)
						}
					})
				}
				for _, h := range hs {
					h.Join()
				}
				writeResult(th, "/n", fmt.Sprintf("%d", n))
			}}
			s := run(t, agent.WallOfClocks, variants, prog)
			checkFile(t, s, "/n", "400")
		})
	}
}

// busy burns deterministic CPU work without syscalls or sync ops.
func busy(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x*1103515245 + 12345
		x &= 0x7fffffff
	}
	return x
}

func TestSemaphoreTryAcquire(t *testing.T) {
	prog := core.Program{Name: "try-sem", Main: func(th *core.Thread) {
		sem := NewSemaphore(th, 1)
		pattern := make([]byte, 0, 4)
		record := func(ok bool) {
			if ok {
				pattern = append(pattern, '1')
			} else {
				pattern = append(pattern, '0')
			}
		}
		record(sem.TryAcquire(th)) // 1: count 1 -> 0
		record(sem.TryAcquire(th)) // 0: empty
		sem.Release(th)
		record(sem.TryAcquire(th)) // 1 again
		writeResult(th, "/pattern", string(pattern))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/pattern", "101")
}

func TestMutexHandoffUnderHeavyContention(t *testing.T) {
	// 8 threads on one lock: the futex slow path (state 2, wake-one) gets
	// exercised constantly; totals and replay must hold.
	prog := core.Program{Name: "contended", Main: func(th *core.Thread) {
		mu := NewMutex(th)
		n := 0
		hs := make([]*core.ThreadHandle, 8)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *core.Thread) {
				for j := 0; j < 100; j++ {
					mu.Lock(tt)
					n++
					busy(20) // hold briefly to force sleeps
					mu.Unlock(tt)
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		writeResult(th, "/n", fmt.Sprintf("%d", n))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/n", "800")
}

func TestCondBroadcastReleasesAllWaiters(t *testing.T) {
	prog := core.Program{Name: "broadcast", Main: func(th *core.Thread) {
		mu := NewMutex(th)
		cv := NewCond(th)
		released := 0
		gate := false
		hs := make([]*core.ThreadHandle, 4)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *core.Thread) {
				mu.Lock(tt)
				for !gate {
					cv.Wait(tt, mu)
				}
				released++
				mu.Unlock(tt)
			})
		}
		// Let the waiters park (they need the lock round-trip first).
		for i := 0; i < 50; i++ {
			th.Yield()
		}
		mu.Lock(th)
		gate = true
		cv.Broadcast(th)
		mu.Unlock(th)
		for _, h := range hs {
			h.Join()
		}
		writeResult(th, "/released", fmt.Sprintf("%d", released))
	}}
	s := run(t, agent.WallOfClocks, 2, prog)
	checkFile(t, s, "/released", "4")
}

func TestBarrierReusableManyPhases(t *testing.T) {
	// 50 phases on one barrier object: generation wrap-around handling.
	prog := core.Program{Name: "barrier-reuse", Main: func(th *core.Thread) {
		bar := NewBarrier(th, 3)
		mu := NewMutex(th)
		sum := 0
		hs := make([]*core.ThreadHandle, 3)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *core.Thread) {
				for p := 0; p < 50; p++ {
					mu.Lock(tt)
					sum++
					mu.Unlock(tt)
					bar.Wait(tt)
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		writeResult(th, "/sum", fmt.Sprintf("%d", sum))
	}}
	s := run(t, agent.TotalOrder, 2, prog)
	checkFile(t, s, "/sum", "150")
}
