package agent

import (
	"sync"
	"testing"
)

func TestCaptureCollectsMasterTickets(t *testing.T) {
	ex := NewCapturingExchange(Config{Slaves: 0, MaxThreads: 2, BufCap: 64, WallSize: 64})
	m := ex.MasterAgent()
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m.Before(tid, uint64(0x100*(tid+1)))
				m.After(tid, uint64(0x100*(tid+1)))
			}
		}(tid)
	}
	wg.Wait()
	ops := StopTape(ex)
	ex.Stop()
	if len(ops[0]) != 20 || len(ops[1]) != 20 {
		t.Fatalf("captured %d/%d tickets, want 20/20", len(ops[0]), len(ops[1]))
	}
	// Per-thread tickets on one clock must be strictly increasing.
	for tid := 0; tid < 2; tid++ {
		for i := 1; i < len(ops[tid]); i++ {
			if ops[tid][i].Clock == ops[tid][i-1].Clock && ops[tid][i].Time <= ops[tid][i-1].Time {
				t.Fatalf("thread %d tickets not increasing: %+v", tid, ops[tid][i-1:i+1])
			}
		}
	}
}

func TestCaptureAlongsideLiveSlave(t *testing.T) {
	ex := NewCapturingExchange(Config{Slaves: 1, MaxThreads: 1, BufCap: 64, WallSize: 64})
	m := ex.MasterAgent()
	s := ex.SlaveAgent(0)
	const ops = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ops; i++ {
			s.Before(0, 0x9000)
			s.After(0, 0x9000)
		}
	}()
	for i := 0; i < ops; i++ {
		m.Before(0, 0x1000)
		m.After(0, 0x1000)
	}
	<-done
	got := StopTape(ex)
	ex.Stop()
	if len(got[0]) != ops {
		t.Fatalf("captured %d tickets alongside a live slave, want %d", len(got[0]), ops)
	}
}

func TestReplayExchangeReplaysTrace(t *testing.T) {
	// Record a 2-thread interleaving, then replay it and verify the same
	// per-variable serialization (the replay harness invariant).
	ex := NewCapturingExchange(Config{Slaves: 0, MaxThreads: 2, BufCap: 256, WallSize: 64})
	m := ex.MasterAgent()
	// Interleave two threads on one variable with a known master order.
	var counter uint32
	var masterObs [2][]uint32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m.Before(tid, 0x500)
				mu.Lock()
				masterObs[tid] = append(masterObs[tid], counter)
				counter++
				mu.Unlock()
				m.After(tid, 0x500)
			}
		}(tid)
	}
	wg.Wait()
	ops := StopTape(ex)
	ex.Stop()

	rex := NewReplayExchange(ops, Config{MaxThreads: 2, WallSize: 64})
	defer rex.Stop()
	slave := rex.SlaveAgent(0)
	var rcounter uint32
	var replayObs [2][]uint32
	var rmu sync.Mutex
	var rwg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		rwg.Add(1)
		go func(tid int) {
			defer rwg.Done()
			for i := 0; i < 25; i++ {
				slave.Before(tid, 0x999) // different address: positional replay
				rmu.Lock()
				replayObs[tid] = append(replayObs[tid], rcounter)
				rcounter++
				rmu.Unlock()
				slave.After(tid, 0x999)
			}
		}(tid)
	}
	rwg.Wait()
	for tid := 0; tid < 2; tid++ {
		for i := range masterObs[tid] {
			if masterObs[tid][i] != replayObs[tid][i] {
				t.Fatalf("thread %d op %d: replay observed %d, recording observed %d",
					tid, i, replayObs[tid][i], masterObs[tid][i])
			}
		}
	}
}
