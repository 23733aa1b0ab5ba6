// Package workload provides synthetic models of the PARSEC 2.1 and
// SPLASH-2x benchmarks used in the paper's evaluation (§5.1, Table 2,
// Figure 5). The real suites are C/C++ programs that cannot run under this
// Go substrate, so each benchmark is modelled by a program with the same
// *sharing structure* (pipeline, data-parallel, task queue, barrier-phased,
// fine-grained locking, reduction) and parameterized to approximate the
// paper's measured system-call and sync-op rates relative to compute
// (Table 2). The agents' costs are driven by exactly those properties, so
// the models preserve the comparative shapes of Table 1 and Figure 5.
//
// canneal is excluded (intentionally racy — fundamentally incompatible with
// an MVEE) and cholesky is excluded (does not run on the paper's system),
// mirroring §5.1.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/synclib"
)

// Params scales a benchmark run.
type Params struct {
	// Workers is the number of worker threads (the paper uses 4).
	Workers int
	// Units is the total number of work units; it scales run time.
	Units int
	// WorkPerUnit is the busy-loop length per unit.
	WorkPerUnit int
}

func (p *Params) fill(defUnits, defWork int) {
	if p.Workers <= 0 {
		p.Workers = 4
	}
	if p.Units <= 0 {
		p.Units = defUnits
	}
	if p.WorkPerUnit <= 0 {
		p.WorkPerUnit = defWork
	}
}

// shapeCfg tunes a shape builder for one benchmark.
type shapeCfg struct {
	units        int        // default work units
	work         int        // per-unit difficulty (kernel inner-loop scale)
	syncEvery    int        // one lock/unlock round per this many units (0 = never)
	syscallEvery int        // one monitored syscall per this many units (0 = never)
	stages       int        // pipeline stages / barrier phases
	locks        int        // lock population (fine-grained shapes)
	kernel       kernelFunc // computational core (kernels.go)
}

// dataParallel models blackscholes/swaptions/freqmine/bodytrack: workers
// process disjoint chunks; optional shared-lock accesses and syscalls.
func dataParallel(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		return core.Program{Name: "data-parallel", Main: func(t *core.Thread) {
			nlocks := cfg.locks
			if nlocks <= 0 {
				nlocks = 1
			}
			locks := make([]*synclib.Mutex, nlocks)
			for i := range locks {
				locks[i] = synclib.NewMutex(t)
			}
			sums := make([]uint32, p.Workers)
			hs := make([]*core.ThreadHandle, p.Workers)
			per := p.Units / p.Workers
			for w := 0; w < p.Workers; w++ {
				w := w
				hs[w] = t.Spawn(func(tt *core.Thread) {
					var acc uint32
					for u := 0; u < per; u++ {
						acc += cfg.kernel(w*per+u, p.WorkPerUnit)
						if cfg.syncEvery > 0 && u%cfg.syncEvery == 0 {
							l := locks[(w+u)%nlocks]
							l.Lock(tt)
							acc++
							l.Unlock(tt)
						}
						if cfg.syscallEvery > 0 && u%cfg.syscallEvery == 0 {
							tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
						}
					}
					sums[w] = acc
				})
			}
			for _, h := range hs {
				h.Join()
			}
			reportChecksum(t, sums)
		}}
	}
}

// pipeline models dedup/ferret/vips/x264: a chain of stages connected by
// bounded queues (mutex+cond), stage 0 reading input via syscalls and the
// last stage writing output.
func pipeline(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		stages := cfg.stages
		if stages < 2 {
			stages = 2
		}
		return core.Program{Name: "pipeline", Main: func(t *core.Thread) {
			qs := make([]*queue, stages-1)
			for i := range qs {
				qs[i] = newQueue(t, 64)
			}
			fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/pipeline-out")).Val
			hs := make([]*core.ThreadHandle, stages)
			for s := 0; s < stages; s++ {
				s := s
				hs[s] = t.Spawn(func(tt *core.Thread) {
					switch {
					case s == 0: // producer
						var acc uint32
						for u := 0; u < p.Units; u++ {
							acc += cfg.kernel(u, p.WorkPerUnit)
							if cfg.syscallEvery > 0 && u%cfg.syscallEvery == 0 {
								tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
							}
							qs[0].put(tt, uint32(u))
						}
						_ = acc
						qs[0].close(tt)
					case s == stages-1: // consumer
						var acc uint32
						for {
							v, ok := qs[s-1].get(tt)
							if !ok {
								break
							}
							acc += v + cfg.kernel(int(v), p.WorkPerUnit)
							if cfg.syscallEvery > 0 && int(v)%cfg.syscallEvery == 0 {
								tt.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte{byte(acc)})
							}
						}
					default: // middle stage
						for {
							v, ok := qs[s-1].get(tt)
							if !ok {
								break
							}
							cfg.kernel(int(v)+s, p.WorkPerUnit)
							qs[s].put(tt, v+1)
						}
						qs[s].close(tt)
					}
				})
			}
			for _, h := range hs {
				h.Join()
			}
		}}
	}
}

// barrierPhased models streamcluster/ocean/fft/radix/lu/facesim: workers
// alternate compute phases separated by barriers, with optional shared
// accumulations.
func barrierPhased(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		phases := cfg.stages
		if phases <= 0 {
			phases = 8
		}
		return core.Program{Name: "barrier-phased", Main: func(t *core.Thread) {
			bar := synclib.NewBarrier(t, p.Workers)
			mu := synclib.NewMutex(t)
			var global uint32
			hs := make([]*core.ThreadHandle, p.Workers)
			perPhase := p.Units / (p.Workers * phases)
			if perPhase == 0 {
				perPhase = 1
			}
			for w := 0; w < p.Workers; w++ {
				hs[w] = t.Spawn(func(tt *core.Thread) {
					for ph := 0; ph < phases; ph++ {
						var acc uint32
						for u := 0; u < perPhase; u++ {
							acc += cfg.kernel(ph*perPhase+u, p.WorkPerUnit)
							if cfg.syscallEvery > 0 && u%cfg.syscallEvery == 0 {
								tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
							}
						}
						if cfg.syncEvery > 0 {
							mu.Lock(tt)
							global += acc
							mu.Unlock(tt)
						}
						bar.Wait(tt)
					}
				})
			}
			for _, h := range hs {
				h.Join()
			}
			reportChecksum(t, []uint32{global})
		}}
	}
}

// taskQueue models radiosity/barnes/fmm/volrend/raytrace: a shared task
// queue with fine-grained locking and work stealing — the highest sync-op
// rates in the suite.
func taskQueue(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		return core.Program{Name: "task-queue", Main: func(t *core.Thread) {
			q := newQueue(t, 256)
			mu := synclib.NewMutex(t)
			var done uint32
			hs := make([]*core.ThreadHandle, p.Workers)
			for w := 0; w < p.Workers; w++ {
				hs[w] = t.Spawn(func(tt *core.Thread) {
					var acc uint32
					for {
						v, ok := q.get(tt)
						if !ok {
							break
						}
						acc += cfg.kernel(int(v), p.WorkPerUnit)
						if cfg.syncEvery > 0 && int(v)%cfg.syncEvery == 0 {
							mu.Lock(tt)
							done++
							mu.Unlock(tt)
						}
						if cfg.syscallEvery > 0 && int(v)%cfg.syscallEvery == 0 {
							tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
						}
					}
					_ = acc
				})
			}
			for u := 0; u < p.Units; u++ {
				q.put(t, uint32(u))
			}
			q.close(t)
			for _, h := range hs {
				h.Join()
			}
		}}
	}
}

// fineGrained models fluidanimate: a grid of cells, each protected by its
// own lock; workers lock neighbouring cells at very high rates.
func fineGrained(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		nlocks := cfg.locks
		if nlocks <= 0 {
			nlocks = 64
		}
		return core.Program{Name: "fine-grained", Main: func(t *core.Thread) {
			locks := make([]*synclib.SpinLock, nlocks)
			cells := make([]uint32, nlocks)
			for i := range locks {
				locks[i] = synclib.NewSpinLock(t)
			}
			hs := make([]*core.ThreadHandle, p.Workers)
			per := p.Units / p.Workers
			for w := 0; w < p.Workers; w++ {
				w := w
				hs[w] = t.Spawn(func(tt *core.Thread) {
					for u := 0; u < per; u++ {
						cfg.kernel(w*per+u, p.WorkPerUnit)
						c := (w*per + u*7) % nlocks
						locks[c].Lock(tt)
						cells[c]++
						locks[c].Unlock(tt)
						if cfg.syscallEvery > 0 && u%cfg.syscallEvery == 0 {
							tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
						}
					}
				})
			}
			for _, h := range hs {
				h.Join()
			}
			reportChecksum(t, cells)
		}}
	}
}

// reduction models water_nsquared/water_spatial: per-step local compute
// followed by a global accumulation under one lock, plus (for
// water_spatial) a high file-output syscall rate.
func reduction(cfg shapeCfg) func(Params) core.Program {
	return func(p Params) core.Program {
		p.fill(cfg.units, cfg.work)
		return core.Program{Name: "reduction", Main: func(t *core.Thread) {
			mu := synclib.NewMutex(t)
			var global uint32
			fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/reduce-out")).Val
			hs := make([]*core.ThreadHandle, p.Workers)
			per := p.Units / p.Workers
			for w := 0; w < p.Workers; w++ {
				hs[w] = t.Spawn(func(tt *core.Thread) {
					for u := 0; u < per; u++ {
						acc := cfg.kernel(u, p.WorkPerUnit)
						if cfg.syncEvery > 0 && u%cfg.syncEvery == 0 {
							mu.Lock(tt)
							global += acc
							mu.Unlock(tt)
						}
						if cfg.syscallEvery > 0 && u%cfg.syscallEvery == 0 {
							tt.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte{byte(u)})
						}
					}
				})
			}
			for _, h := range hs {
				h.Join()
			}
			reportChecksum(t, []uint32{global})
		}}
	}
}

// queue is a bounded MPMC queue built from instrumented primitives only.
type queue struct {
	mu                *synclib.Mutex
	notEmpty, notFull *synclib.Cond
	buf               []uint32
	cap               int
	closed            bool
}

func newQueue(t *core.Thread, capacity int) *queue {
	return &queue{
		mu:       synclib.NewMutex(t),
		notEmpty: synclib.NewCond(t),
		notFull:  synclib.NewCond(t),
		cap:      capacity,
	}
}

func (q *queue) put(t *core.Thread, v uint32) {
	q.mu.Lock(t)
	for len(q.buf) >= q.cap {
		q.notFull.Wait(t, q.mu)
	}
	q.buf = append(q.buf, v)
	q.notEmpty.Signal(t)
	q.mu.Unlock(t)
}

func (q *queue) get(t *core.Thread) (uint32, bool) {
	q.mu.Lock(t)
	for len(q.buf) == 0 && !q.closed {
		q.notEmpty.Wait(t, q.mu)
	}
	if len(q.buf) == 0 {
		q.mu.Unlock(t)
		return 0, false
	}
	v := q.buf[0]
	q.buf = q.buf[1:]
	q.notFull.Signal(t)
	q.mu.Unlock(t)
	return v, true
}

func (q *queue) close(t *core.Thread) {
	q.mu.Lock(t)
	q.closed = true
	q.notEmpty.Broadcast(t)
	q.mu.Unlock(t)
}

// reportChecksum writes a deterministic digest of the results through a
// monitored syscall, so any cross-variant deviation in computed state is
// caught as divergence.
func reportChecksum(t *core.Thread, vals []uint32) {
	var sum uint64
	for _, v := range vals {
		sum = sum*31 + uint64(v)
	}
	fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/checksum")).Val
	t.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%x", sum)))
	t.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
}
