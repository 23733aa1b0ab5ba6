package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/kernel"
	"repro/internal/monitor"
)

// runWithTimeout guards against replay deadlocks turning into 10-minute
// test-binary timeouts.
func runWithTimeout(t *testing.T, opts Options, prog Program) *Result {
	t.Helper()
	s := NewSession(opts, prog)
	done := make(chan *Result, 1)
	go func() { done <- s.Run() }()
	select {
	case r := <-done:
		return r
	case <-time.After(60 * time.Second):
		s.Kill()
		t.Fatalf("%s: session deadlocked", prog.Name)
		return nil
	}
}

func allAgents() []agent.Kind {
	return []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks}
}

func TestSingleVariantSingleThread(t *testing.T) {
	prog := Program{Name: "hello", Main: func(th *Thread) {
		r := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.ORdwr}, []byte("/out"))
		if !r.Ok() {
			t.Errorf("open: %v", r.Err)
			return
		}
		th.Syscall(kernel.SysWrite, [6]uint64{r.Val}, []byte("hi"))
		th.Syscall(kernel.SysClose, [6]uint64{r.Val}, nil)
	}}
	res := runWithTimeout(t, Options{Variants: 1}, prog)
	if res.Divergence != nil {
		t.Fatalf("unexpected divergence: %v", res.Divergence)
	}
	// open + write + close, plus the trampoline's implicit thread_exit
	// when Main returns.
	if res.Syscalls != 4 {
		t.Fatalf("syscalls = %d, want 4", res.Syscalls)
	}
}

func TestOutputWrittenOnceAcrossVariants(t *testing.T) {
	// Core MVEE property: N variants, but each output performed once.
	prog := Program{Name: "write-once", Main: func(th *Thread) {
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/f")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte("once"))
		th.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	}}
	for variants := 2; variants <= 4; variants++ {
		s := NewSession(Options{Variants: variants, Agent: agent.WallOfClocks, ASLR: true}, prog)
		res := s.Run()
		if res.Divergence != nil {
			t.Fatalf("%d variants: divergence: %v", variants, res.Divergence)
		}
		got, ok := s.Kernel().ReadFile("/f")
		if !ok || string(got) != "once" {
			t.Fatalf("%d variants: file = %q (output duplicated or lost)", variants, got)
		}
	}
}

func TestInputReplicatedToAllVariants(t *testing.T) {
	// Each variant must observe identical input bytes although only the
	// master reads the file.
	kern := kernel.New()
	kern.WriteFile("/in", []byte("shared input"))
	prog := Program{Name: "read-replicate", Main: func(th *Thread) {
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, []byte("/in")).Val
		r := th.Syscall(kernel.SysRead, [6]uint64{fd, 64}, nil)
		// Echo what we read: if any variant read different bytes, the
		// write payloads mismatch and the monitor flags divergence.
		fd2 := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/echo")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{fd2}, r.Data)
	}}
	s := NewSession(Options{Variants: 3, Agent: agent.WallOfClocks, Kernel: kern, ASLR: true}, prog)
	res := s.Run()
	if res.Divergence != nil {
		t.Fatalf("divergence: %v", res.Divergence)
	}
	got, _ := kern.ReadFile("/echo")
	if string(got) != "shared input" {
		t.Fatalf("echo = %q", got)
	}
}

func TestFDConsistencyAcrossVariants(t *testing.T) {
	// §3.1's motivating example: two threads open files concurrently; the
	// assigned FDs must be consistent across variants. The program prints
	// its FDs; payload comparison catches inconsistency.
	for _, k := range allAgents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := Program{Name: "fd-order", Main: func(th *Thread) {
				hs := make([]*ThreadHandle, 4)
				for i := 0; i < 4; i++ {
					i := i
					hs[i] = th.Spawn(func(tt *Thread) {
						path := fmt.Sprintf("/file-%d", i)
						fd := tt.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.ORdwr}, []byte(path)).Val
						out := fmt.Sprintf("thread %d got fd %d", i, fd)
						logfd := tt.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly | kernel.OAppend}, []byte(fmt.Sprintf("/log-%d", i))).Val
						tt.Syscall(kernel.SysWrite, [6]uint64{logfd}, []byte(out))
					})
				}
				for _, h := range hs {
					h.Join()
				}
			}}
			res := runWithTimeout(t, Options{Variants: 2, Agent: k, ASLR: true}, prog)
			if res.Divergence != nil {
				t.Fatalf("divergence: %v", res.Divergence)
			}
		})
	}
}

func TestMutexCounterAllAgents(t *testing.T) {
	// The canonical shared-state program: 4 threads increment a counter
	// under a mutex, then the main thread writes the total. Any replay
	// error shows up as payload divergence or a wrong total.
	const threads = 4
	const iters = 200
	mkProg := func(t *testing.T) Program {
		return Program{Name: "mutex-counter", Main: func(th *Thread) {
			mu := newMutexForTest(th)
			counter := 0
			hs := make([]*ThreadHandle, threads)
			for i := 0; i < threads; i++ {
				hs[i] = th.Spawn(func(tt *Thread) {
					for j := 0; j < iters; j++ {
						mu.lock(tt)
						counter++
						mu.unlock(tt)
					}
				})
			}
			for _, h := range hs {
				h.Join()
			}
			fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/total")).Val
			th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d", counter)))
		}}
	}
	for _, k := range allAgents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := NewSession(Options{Variants: 2, Agent: k, ASLR: true, Seed: 1}, mkProg(t))
			done := make(chan *Result, 1)
			go func() { done <- s.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				s.Kill()
				t.Fatal("deadlock")
			}
			if res.Divergence != nil {
				t.Fatalf("divergence: %v", res.Divergence)
			}
			got, _ := s.Kernel().ReadFile("/total")
			if string(got) != fmt.Sprintf("%d", threads*iters) {
				t.Fatalf("total = %q, want %d", got, threads*iters)
			}
			if res.SyncOps == 0 {
				t.Fatal("no sync ops recorded")
			}
		})
	}
}

// minimal futex mutex re-implemented here to avoid importing synclib
// (which would create an import cycle in tests: synclib imports core).
type testMutex struct{ w *SyncVar }

func newMutexForTest(t *Thread) *testMutex { return &testMutex{w: t.NewSyncVar()} }
func (m *testMutex) lock(t *Thread) {
	if t.CAS(m.w, 0, 1) {
		return
	}
	for t.Xchg(m.w, 2) != 0 {
		t.FutexWait(m.w, 2)
	}
}
func (m *testMutex) unlock(t *Thread) {
	if t.Xchg(m.w, 0) == 2 {
		t.FutexWake(m.w, 1<<30)
	}
}

func TestDivergenceDetectedOnDifferentPayload(t *testing.T) {
	// A variant-dependent payload is the signature of a (simulated)
	// attack: variants write different bytes, the monitor must kill.
	prog := Program{Name: "diverger", Main: func(th *Thread) {
		payload := fmt.Sprintf("secret=%d", th.Variant())
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/leak")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(payload))
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true}, prog)
	if res.Divergence == nil {
		t.Fatal("divergence not detected")
	}
	if res.Divergence.Reason != "payload mismatch" {
		t.Fatalf("reason = %q", res.Divergence.Reason)
	}
}

func TestDivergenceDetectedOnDifferentSyscall(t *testing.T) {
	prog := Program{Name: "sysno-diverger", Main: func(th *Thread) {
		if th.Variant() == 0 {
			th.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
		} else {
			th.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence == nil {
		t.Fatal("syscall-number divergence not detected")
	}
}

func TestDivergenceDetectedOnExtraSyscall(t *testing.T) {
	prog := Program{Name: "extra-syscall", Main: func(th *Thread) {
		th.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
		if th.Variant() == 1 {
			th.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
		}
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence == nil {
		t.Fatal("extra-syscall divergence not detected")
	}
}

func TestBrkAndMmapDifferPerVariantWithoutDivergence(t *testing.T) {
	// Address-space calls execute per variant and return different
	// addresses; the monitor must mask them, not flag divergence.
	prog := Program{Name: "mem", Main: func(th *Thread) {
		brk := th.Syscall(kernel.SysBrk, [6]uint64{0}, nil).Val
		th.Syscall(kernel.SysBrk, [6]uint64{brk + 65536}, nil)
		m := th.Syscall(kernel.SysMmap, [6]uint64{0, 1 << 20}, nil)
		if !m.Ok() {
			t.Errorf("mmap: %v", m.Err)
		}
		th.Syscall(kernel.SysMunmap, [6]uint64{m.Val, 1 << 20}, nil)
	}}
	res := runWithTimeout(t, Options{Variants: 3, Agent: agent.WallOfClocks, ASLR: true, Seed: 9}, prog)
	if res.Divergence != nil {
		t.Fatalf("address-space calls diverged: %v", res.Divergence)
	}
}

func TestPipelineProducerConsumer(t *testing.T) {
	// Threads communicating through a kernel pipe: exercises blocking
	// (unordered) replicated reads.
	for _, k := range allAgents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := Program{Name: "pipe", Main: func(th *Thread) {
				p := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
				rfd, wfd := p.Val, p.Val2
				cons := th.Spawn(func(tt *Thread) {
					total := 0
					for {
						r := tt.Syscall(kernel.SysRead, [6]uint64{rfd, 4}, nil)
						if r.Val == 0 {
							break
						}
						total += int(r.Val)
					}
					fd := tt.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/count")).Val
					tt.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d", total)))
				})
				for i := 0; i < 16; i++ {
					th.Syscall(kernel.SysWrite, [6]uint64{wfd}, []byte("abcd"))
				}
				th.Syscall(kernel.SysClose, [6]uint64{wfd}, nil)
				cons.Join()
			}}
			s := NewSession(Options{Variants: 2, Agent: k, ASLR: true}, prog)
			done := make(chan *Result, 1)
			go func() { done <- s.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				s.Kill()
				t.Fatal("deadlock")
			}
			if res.Divergence != nil {
				t.Fatalf("divergence: %v", res.Divergence)
			}
			got, _ := s.Kernel().ReadFile("/count")
			if string(got) != "64" {
				t.Fatalf("count = %q, want 64", got)
			}
		})
	}
}

func TestVariantSelfAwareness(t *testing.T) {
	// The MVEE-awareness syscall (§4.5) must report distinct roles.
	prog := Program{Name: "aware", Main: func(th *Thread) {
		v := th.Variant()
		if th.IsMaster() != (v == 0) {
			t.Errorf("IsMaster inconsistent with Variant()=%d", v)
		}
	}}
	res := runWithTimeout(t, Options{Variants: 3, Agent: agent.WallOfClocks}, prog)
	if res.Divergence != nil {
		t.Fatalf("divergence: %v", res.Divergence)
	}
}

func TestPolicySecuritySensitiveSkipsBenignMismatch(t *testing.T) {
	// Under the relaxed policy, a non-sensitive argument mismatch (lseek
	// offset) is tolerated; under strict lockstep it is divergence.
	mk := func() Program {
		return Program{Name: "policy", Main: func(th *Thread) {
			fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.ORdwr}, []byte("/p")).Val
			off := uint64(0)
			if th.Variant() == 1 {
				off = 4
			}
			th.Syscall(kernel.SysLseek, [6]uint64{fd, off, kernel.SeekSet}, nil)
		}}
	}
	strict := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks,
		Policy: monitor.PolicyStrictLockstep}, mk())
	if strict.Divergence == nil {
		t.Fatal("strict policy missed the mismatch")
	}
	relaxed := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks,
		Policy: monitor.PolicySecuritySensitive}, mk())
	if relaxed.Divergence != nil {
		t.Fatalf("relaxed policy flagged non-sensitive call: %v", relaxed.Divergence)
	}
}

func TestGettimeofdayReplicated(t *testing.T) {
	// All variants must observe the master's timestamps — the covert
	// channel PoC (§5.4) depends on this replication.
	prog := Program{Name: "time", Main: func(th *Thread) {
		t1 := th.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil).Val
		t2 := th.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil).Val
		if t2 <= t1 {
			t.Errorf("time not increasing: %d then %d", t1, t2)
		}
		// Writing the timestamps: identical across variants iff replicated.
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/ts")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d-%d", t1, t2)))
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Divergence != nil {
		t.Fatalf("timestamps not replicated: %v", res.Divergence)
	}
}

func TestManyThreadsManyLocks(t *testing.T) {
	// Heavier integration: 8 threads, 4 locks, interleaved critical
	// sections plus occasional ordered syscalls.
	if testing.Short() {
		t.Skip("soak")
	}
	for _, k := range allAgents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog := Program{Name: "soak", Main: func(th *Thread) {
				locks := make([]*testMutex, 4)
				for i := range locks {
					locks[i] = newMutexForTest(th)
				}
				counters := make([]int, 4)
				hs := make([]*ThreadHandle, 8)
				for i := 0; i < 8; i++ {
					i := i
					hs[i] = th.Spawn(func(tt *Thread) {
						for j := 0; j < 100; j++ {
							l := (i + j) % 4
							locks[l].lock(tt)
							counters[l]++
							locks[l].unlock(tt)
							if j%25 == 24 {
								tt.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
							}
						}
					})
				}
				for _, h := range hs {
					h.Join()
				}
				sum := 0
				for _, c := range counters {
					sum += c
				}
				fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/sum")).Val
				th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d", sum)))
			}}
			s := NewSession(Options{Variants: 3, Agent: k, ASLR: true, MaxThreads: 16}, prog)
			done := make(chan *Result, 1)
			go func() { done <- s.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(120 * time.Second):
				s.Kill()
				t.Fatal("deadlock")
			}
			if res.Divergence != nil {
				t.Fatalf("divergence: %v", res.Divergence)
			}
			got, _ := s.Kernel().ReadFile("/sum")
			if string(got) != "800" {
				t.Fatalf("sum = %q, want 800", got)
			}
		})
	}
}

func TestWallCollisionsStillCorrect(t *testing.T) {
	// §4.5: hash collisions map unrelated variables onto one clock, which
	// "introduces unnecessary serialization and hence potentially also
	// unnecessary stalls" — but replay must remain correct. Degenerate
	// wall sizes force maximal collision.
	for _, wall := range []int{1, 2, 16, 4096} {
		wall := wall
		t.Run(fmt.Sprintf("wall-%d", wall), func(t *testing.T) {
			prog := Program{Name: "collide", Main: func(th *Thread) {
				locks := make([]*testMutex, 8)
				for i := range locks {
					locks[i] = newMutexForTest(th)
				}
				counters := make([]int, 8)
				hs := make([]*ThreadHandle, 4)
				for i := 0; i < 4; i++ {
					i := i
					hs[i] = th.Spawn(func(tt *Thread) {
						for j := 0; j < 100; j++ {
							l := (i*31 + j) % 8
							locks[l].lock(tt)
							counters[l]++
							locks[l].unlock(tt)
						}
					})
				}
				for _, h := range hs {
					h.Join()
				}
				sum := 0
				for _, c := range counters {
					sum += c
				}
				fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/sum")).Val
				th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d", sum)))
			}}
			s := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks,
				ASLR: true, WallSize: wall}, prog)
			done := make(chan *Result, 1)
			go func() { done <- s.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				s.Kill()
				t.Fatal("deadlock under collisions")
			}
			if res.Divergence != nil {
				t.Fatalf("collisions broke replay: %v", res.Divergence)
			}
			got, _ := s.Kernel().ReadFile("/sum")
			if string(got) != "400" {
				t.Fatalf("sum = %q", got)
			}
		})
	}
}

// TestSessionLifecycleHooks exercises the Start/Wait split and every
// lifecycle callback: OnStart before the variants run, OnFinish with the
// result before Wait unblocks, and OnDivergence only on divergence.
func TestSessionLifecycleHooks(t *testing.T) {
	var order []string
	var mu sync.Mutex
	log := func(ev string) { mu.Lock(); order = append(order, ev); mu.Unlock() }

	ok := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 1},
		Program{Name: "ok", Main: func(th *Thread) {
			th.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
		}})
	ok.OnStart(func() { log("start") })
	ok.OnFinish(func(r *Result) {
		if r == nil {
			t.Error("OnFinish got nil result")
		}
		log("finish")
	})
	ok.OnDivergence(func(*monitor.Divergence) { log("divergence") })
	ok.Start()
	ok.Start() // idempotent
	res := ok.Wait()
	if res2 := ok.Wait(); res2 != res {
		t.Fatal("Wait not stable across calls")
	}
	if res.Divergence != nil {
		t.Fatalf("clean program diverged: %v", res.Divergence)
	}
	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if got != "[start finish]" {
		t.Fatalf("hook order = %v", got)
	}

	// A diverging program fires OnDivergence (before OnFinish).
	div := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 1},
		Program{Name: "leaky", Main: func(th *Thread) {
			addr := th.DataAddr(8) // layout-dependent under ASLR
			fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/leak")).Val
			th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%x", addr)))
		}})
	fired := make(chan *monitor.Divergence, 1)
	div.OnDivergence(func(d *monitor.Divergence) { fired <- d })
	res = div.Run()
	if res.Divergence == nil {
		t.Fatal("leaky program did not diverge")
	}
	select {
	case d := <-fired:
		if d != res.Divergence {
			t.Fatalf("hook saw %v, result has %v", d, res.Divergence)
		}
	default:
		t.Fatal("OnDivergence hook never fired")
	}
}
