package core

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/kernel"
)

// BenchmarkSyncThenSyscall is the measuring stick for the shape benchmark/
// cannot carry until the thread-pool server stops wedging (ROADMAP direction
// 1): every thread-pool request is k sync ops followed by a lockstep syscall.
// The master records its 2k tickets and then waits at the rendezvous for the
// very slave thread that replays them, so whatever that thread spends waiting
// for tickets that are not coming is on the critical path. An iteration is k
// spinlock pairs (a lock per thread: no guest contention, the cost is the
// agents') and one strict getpid; two threads run b.N iterations each under
// 2 variants, wall-of-clocks. The ±1 cell draws k from {k-1, k, k+1} per
// iteration, the same in every variant.
func BenchmarkSyncThenSyscall(b *testing.B) {
	for _, c := range []struct {
		name      string
		k, jitter int
	}{{"k=1", 1, 0}, {"k=2", 2, 0}, {"k=4", 4, 0}, {"k=12", 12, 0}, {"k=4±1", 4, 1}} {
		b.Run(c.name, func(b *testing.B) {
			worker := func(t *Thread, lock *SyncVar) {
				for i := 0; i < b.N; i++ {
					k := c.k
					if c.jitter > 0 {
						k += int(uint32(i)*2654435761>>16)%(2*c.jitter+1) - c.jitter
					}
					for ; k > 0; k-- {
						for !t.CAS(lock, 0, 1) {
							t.Yield()
						}
						t.Store(lock, 0)
					}
					t.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
				}
			}
			s := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true, Seed: 21, MaxThreads: 4},
				Program{Name: "sync-then-syscall", Main: func(t *Thread) {
					mine, theirs := t.NewSyncVar(), t.NewSyncVar() // separate words: separate clocks
					h := t.Spawn(func(tt *Thread) { worker(tt, theirs) })
					worker(t, mine)
					h.Join()
				}})
			b.ResetTimer()
			if res := s.Run(); res.Divergence != nil || res.Panic != nil {
				b.Fatalf("diverged: %v, panic: %v", res.Divergence, res.Panic)
			}
		})
	}
}
