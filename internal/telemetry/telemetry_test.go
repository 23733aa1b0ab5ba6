package telemetry

import (
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestMatrixCountsPerVariantPerSysno(t *testing.T) {
	m := NewMatrix(2)
	for i := 0; i < 10; i++ {
		m.Inc(0, i, kernel.SysGetpid) // spread over every shard
	}
	m.Inc(0, 0, kernel.SysWrite)
	m.Inc(1, 3, kernel.SysWrite)
	if got := m.Count(0, kernel.SysGetpid); got != 10 {
		t.Fatalf("Count(0, getpid) = %d, want 10", got)
	}
	if got := m.Count(0, kernel.SysWrite); got != 1 {
		t.Fatalf("Count(0, write) = %d, want 1", got)
	}
	if got := m.Count(1, kernel.SysWrite); got != 1 {
		t.Fatalf("Count(1, write) = %d, want 1", got)
	}
	if got := m.Count(1, kernel.SysGetpid); got != 0 {
		t.Fatalf("Count(1, getpid) = %d, want 0", got)
	}
	s := m.Snapshot()
	if s.Total(0) != 11 || s.Total(1) != 1 {
		t.Fatalf("snapshot totals = %d/%d, want 11/1", s.Total(0), s.Total(1))
	}
	if s.Cells[0][kernel.SysGetpid].Count != 10 {
		t.Fatalf("snapshot cell = %+v", s.Cells[0][kernel.SysGetpid])
	}
}

func TestMatrixSampledLatency(t *testing.T) {
	m := NewMatrix(1)
	m.Observe(0, kernel.SysRead, 5*time.Microsecond)
	m.Observe(0, kernel.SysRead, 7*time.Microsecond)
	s := m.Snapshot()
	c := s.Cells[0][kernel.SysRead]
	if c.LatN != 2 || c.LatMax < uint64(7*time.Microsecond) {
		t.Fatalf("latency cell = %+v", c)
	}
}

func TestSampleDue(t *testing.T) {
	// The first call of a cell samples; then one in every SampleEvery.
	if !SampleDue(1) {
		t.Fatalf("count 1 must sample")
	}
	due := 0
	for c := uint64(1); c <= 4*SampleEvery; c++ {
		if SampleDue(c) {
			due++
		}
	}
	if due != 4 {
		t.Fatalf("%d samples in %d calls, want 4", due, 4*SampleEvery)
	}
}

func TestSnapshotMergeAddsCountsAndLatency(t *testing.T) {
	a, b := NewMatrix(2), NewMatrix(2)
	a.Inc(0, 0, kernel.SysOpen)
	a.Observe(0, kernel.SysOpen, time.Microsecond)
	b.Inc(0, 0, kernel.SysOpen)
	b.Inc(0, 0, kernel.SysOpen)
	b.Observe(0, kernel.SysOpen, 3*time.Microsecond)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	c := s.Cells[0][kernel.SysOpen]
	if c.Count != 3 {
		t.Fatalf("merged count = %d, want 3", c.Count)
	}
	if c.LatN != 2 || c.LatMax != uint64(3*time.Microsecond) {
		t.Fatalf("merged latency cell = %+v", c)
	}
}

func TestFlightWrapKeepsLastCap(t *testing.T) {
	f := NewFlight(8)
	args := [6]uint64{1, 2, 3}
	for i := 0; i < 20; i++ {
		f.Append(kernel.SysWrite, 0, Digest(&args, nil), uint64(i+1), 0)
	}
	tail := f.Snapshot()
	if len(tail) != 8 {
		t.Fatalf("tail has %d records, want 8", len(tail))
	}
	for i, r := range tail {
		if want := uint64(12 + i); r.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, r.Seq, want)
		}
		if r.Ticket != r.Seq+1 || r.Sysno != kernel.SysWrite {
			t.Fatalf("tail[%d] = %+v", i, r)
		}
	}
}

func TestFlightRecordsFields(t *testing.T) {
	f := NewFlight(4)
	args := [6]uint64{7, 0, 9}
	f.Append(kernel.SysKill, 3, Digest(&args, []byte("x")), 42, 15)
	tail := f.Snapshot()
	if len(tail) != 1 {
		t.Fatalf("tail = %+v", tail)
	}
	r := tail[0]
	if r.Sysno != kernel.SysKill || r.Tid != 3 || r.Ticket != 42 || r.Sig != 15 {
		t.Fatalf("record = %+v", r)
	}
	if r.Digest != Digest(&args, []byte("x")) {
		t.Fatalf("digest mismatch: %x", r.Digest)
	}
	if r.Digest == Digest(&args, []byte("y")) {
		t.Fatalf("digest ignores the payload")
	}
}

// TestFlightRecorderStress hammers one recorder from many appenders while
// snapshots run concurrently: every snapshot must be internally consistent
// (monotonic seq, in-range sysno, digests that match what appenders wrote
// for that seq). Run under -race in CI, repeatedly.
func TestFlightRecorderStress(t *testing.T) {
	f := NewFlight(64)
	const appenders = 8
	const perAppender = 5000
	stop := make(chan struct{})
	reader := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			args := [6]uint64{uint64(a)}
			d := Digest(&args, nil)
			for i := 0; i < perAppender; i++ {
				f.Append(kernel.SysWrite, a, d, uint64(i), 0)
			}
		}(a)
	}
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tail := f.Snapshot()
			last := uint64(0)
			for i, r := range tail {
				if i > 0 && r.Seq <= last {
					t.Errorf("snapshot seq not monotonic: %d after %d", r.Seq, last)
					return
				}
				last = r.Seq
				if r.Sysno >= kernel.SysnoMax || int(r.Tid) >= appenders {
					t.Errorf("snapshot record out of range: %+v", r)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-reader
	if f.Len() != appenders*perAppender {
		t.Fatalf("recorded %d appends, want %d", f.Len(), appenders*perAppender)
	}
	final := f.Snapshot()
	if len(final) == 0 || len(final) > f.Cap() {
		t.Fatalf("final tail has %d records (cap %d)", len(final), f.Cap())
	}
}

// The primitives the monitor adds to every replicated call — a sharded
// count, the same with the 1-in-SampleEvery latency sample, and a
// flight-recorder append — must not allocate.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	m := NewMatrix(2)
	f := NewFlight(FlightCap)
	args := [6]uint64{1, 2, 3}
	seq := uint64(0)
	for name, op := range map[string]func(){
		"inc": func() { m.Inc(0, 0, kernel.SysGetpid) },
		"inc-sampled": func() {
			if SampleDue(m.Inc(0, 0, kernel.SysGetpid)) {
				t0 := time.Now()
				m.Observe(0, kernel.SysGetpid, time.Since(t0))
			}
		},
		"flight-append": func() {
			seq++
			f.Append(kernel.SysGetpid, 0, Digest(&args, nil), seq, 0)
		},
	} {
		if allocs := testing.AllocsPerRun(4*SampleEvery, op); allocs != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", name, allocs)
		}
	}
}
