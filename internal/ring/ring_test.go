package ring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLogRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	} {
		if got := NewLog[int](tc.in, 1).Cap(); got != tc.want {
			t.Errorf("NewLog(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLogRejectsZeroGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLog with 0 groups did not panic")
		}
	}()
	NewLog[int](8, 0)
}

func TestLogFIFOSingleProducer(t *testing.T) {
	l := NewLog[int](8, 1)
	done := make(chan struct{})
	const n = 1000
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			seq := l.Cursor(0)
			if got := l.Get(seq); got != i {
				t.Errorf("entry %d = %d, want %d", seq, got, i)
				return
			}
			l.Advance(0, seq)
		}
	}()
	for i := 0; i < n; i++ {
		if seq := l.Append(i); seq != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	<-done
}

func TestLogBroadcastToAllGroups(t *testing.T) {
	const groups = 3
	const n = 500
	l := NewLog[int](16, groups)
	var wg sync.WaitGroup
	errs := make(chan error, groups)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				seq := l.Cursor(g)
				if got := l.Get(seq); got != i {
					errs <- errf("group %d entry %d = %d, want %d", g, seq, got, i)
					return
				}
				l.Advance(g, seq)
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLogMultiProducerNoLossNoDup(t *testing.T) {
	const producers = 4
	const per = 2000
	l := NewLog[int](64, 1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(p*per + i)
			}
		}(p)
	}
	seen := make(map[int]bool, producers*per)
	for i := 0; i < producers*per; i++ {
		seq := l.Cursor(0)
		v := l.Get(seq)
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
		l.Advance(0, seq)
	}
	wg.Wait()
	if len(seen) != producers*per {
		t.Fatalf("delivered %d values, want %d", len(seen), producers*per)
	}
}

func TestLogPerProducerOrderPreserved(t *testing.T) {
	// FIFO per producer: values from one producer arrive in its send order.
	const producers = 3
	const per = 1500
	l := NewLog[[2]int](32, 1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append([2]int{p, i})
			}
		}(p)
	}
	next := make([]int, producers)
	for i := 0; i < producers*per; i++ {
		seq := l.Cursor(0)
		v := l.Get(seq)
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got %d, want %d", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
		l.Advance(0, seq)
	}
	wg.Wait()
}

func TestLogBackpressureBlocksProducer(t *testing.T) {
	l := NewLog[int](4, 1)
	for i := 0; i < 4; i++ {
		l.Append(i)
	}
	appended := make(chan struct{})
	go func() {
		l.Append(99) // must block until the consumer frees a slot
		close(appended)
	}()
	select {
	case <-appended:
		t.Fatal("Append returned while log was full")
	default:
	}
	seq := l.Cursor(0)
	if got := l.Get(seq); got != 0 {
		t.Fatalf("head = %d, want 0", got)
	}
	l.Advance(0, seq)
	<-appended // deadlocks (test timeout) if back-pressure never releases
}

func TestLogTryGet(t *testing.T) {
	l := NewLog[int](8, 1)
	if _, ok := l.TryGet(0); ok {
		t.Fatal("TryGet(0) succeeded on empty log")
	}
	l.Append(42)
	v, ok := l.TryGet(0)
	if !ok || v != 42 {
		t.Fatalf("TryGet(0) = %d,%v want 42,true", v, ok)
	}
	if _, ok := l.TryGet(1); ok {
		t.Fatal("TryGet(1) succeeded before publication")
	}
}

func TestLogAdvanceOutOfOrderPanics(t *testing.T) {
	l := NewLog[int](8, 1)
	l.Append(1)
	l.Append(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Advance did not panic")
		}
	}()
	l.Advance(0, 1) // cursor is 0; advancing seq 1 is a consumption bug
}

func TestLogAdvanceTo(t *testing.T) {
	l := NewLog[int](8, 2)
	for i := 0; i < 5; i++ {
		l.Append(i)
	}
	l.AdvanceTo(0, 3)
	if l.Cursor(0) != 3 {
		t.Fatalf("cursor = %d, want 3", l.Cursor(0))
	}
	l.AdvanceTo(0, 1) // moving backwards is a no-op
	if l.Cursor(0) != 3 {
		t.Fatalf("cursor moved backwards to %d", l.Cursor(0))
	}
}

func TestLogProduced(t *testing.T) {
	l := NewLog[int](8, 1)
	if l.Produced() != 0 {
		t.Fatalf("Produced = %d on empty log", l.Produced())
	}
	l.Append(1)
	l.Append(2)
	if l.Produced() != 2 {
		t.Fatalf("Produced = %d, want 2", l.Produced())
	}
}

// Property: for any interleaving of appends from up to 4 producers, a single
// consumer group observes every value exactly once and per-producer FIFO.
func TestLogPropertyBroadcast(t *testing.T) {
	f := func(counts [4]uint8) bool {
		l := NewLog[[2]int](16, 2)
		var wg sync.WaitGroup
		total := 0
		for p, c := range counts {
			n := int(c % 64)
			total += n
			wg.Add(1)
			go func(p, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					l.Append([2]int{p, i})
				}
			}(p, n)
		}
		ok := true
		var cg sync.WaitGroup
		for g := 0; g < 2; g++ {
			cg.Add(1)
			go func(g int) {
				defer cg.Done()
				next := [4]int{}
				for i := 0; i < total; i++ {
					seq := l.Cursor(g)
					v := l.Get(seq)
					if v[1] != next[v[0]] {
						ok = false
						return
					}
					next[v[0]]++
					l.Advance(g, seq)
				}
			}(g)
		}
		wg.Wait()
		cg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func TestAppendBatchSequential(t *testing.T) {
	l := NewLog[int](8, 1)
	if first := l.AppendBatch([]int{10, 11, 12}); first != 0 {
		t.Fatalf("first seq = %d, want 0", first)
	}
	if first := l.AppendBatch([]int{13}); first != 3 {
		t.Fatalf("first seq = %d, want 3", first)
	}
	for i := 0; i < 4; i++ {
		if got := l.Get(uint64(i)); got != 10+i {
			t.Fatalf("entry %d = %d, want %d", i, got, 10+i)
		}
		l.Advance(0, uint64(i))
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	l := NewLog[int](8, 1)
	l.AppendBatch(nil)
	if l.Produced() != 0 {
		t.Fatalf("empty batch produced %d entries", l.Produced())
	}
}

func TestAppendBatchLargerThanCapacity(t *testing.T) {
	// A batch exceeding the ring capacity must be split internally, with
	// the consumer draining mid-batch, instead of deadlocking on the ring's
	// own bound.
	l := NewLog[int](4, 1)
	const n = 19
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			seq := l.Cursor(0)
			if got := l.Get(seq); got != i {
				t.Errorf("entry %d = %d, want %d", seq, got, i)
				return
			}
			l.Advance(0, seq)
		}
	}()
	l.AppendBatch(vs)
	<-done
}

func TestTryConsumeBatch(t *testing.T) {
	l := NewLog[int](16, 2)
	out := make([]int, 4)
	if n := l.TryConsumeBatch(0, out); n != 0 {
		t.Fatalf("consumed %d from empty log", n)
	}
	for i := 0; i < 6; i++ {
		l.Append(i)
	}
	if n := l.TryConsumeBatch(0, out); n != 4 {
		t.Fatalf("consumed %d, want 4 (len(out))", n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if n := l.TryConsumeBatch(0, out); n != 2 {
		t.Fatalf("second consume = %d, want 2", n)
	}
	if out[0] != 4 || out[1] != 5 {
		t.Fatalf("second batch = %v", out[:2])
	}
	if l.Cursor(0) != 6 {
		t.Fatalf("cursor = %d, want 6", l.Cursor(0))
	}
	// Group 1 is independent and still sees everything.
	if n := l.TryConsumeBatch(1, out); n != 4 || out[0] != 0 {
		t.Fatalf("group 1 first consume = %d (%v)", n, out)
	}
}

func TestTryConsumeBatchStopsAtUnpublished(t *testing.T) {
	// A multi-producer log can have a published entry after an unpublished
	// one; the batch must stop at the gap.
	l := NewLog[int](8, 1)
	l.prod.Add(1) // producer A claimed seq 0 but has not published
	l.slots[1].val = 42
	l.prod.Add(1)
	l.slots[1].pub.Store(2) // producer B published seq 1
	out := make([]int, 4)
	if n := l.TryConsumeBatch(0, out); n != 0 {
		t.Fatalf("consumed %d across an unpublished gap", n)
	}
	l.slots[0].val = 41
	l.slots[0].pub.Store(1)
	if n := l.TryConsumeBatch(0, out); n != 2 || out[0] != 41 || out[1] != 42 {
		t.Fatalf("consume after publish = %d (%v)", n, out[:2])
	}
}

func TestStopUnblocksFullRingAppendPromptly(t *testing.T) {
	l := NewLog[int](2, 1)
	var stop atomic.Bool
	stop.Store(true)
	l.SetStop(&stop)
	l.Append(0)
	l.Append(1)
	defer func() {
		if recover() != ErrStopped {
			t.Fatal("Append on a stopped full ring did not panic ErrStopped")
		}
	}()
	l.Append(2)
}

// Property (satellite): batched ring ops are observation-equivalent to
// single-event ops — for any mix of Append and AppendBatch producers and a
// consumer using TryConsumeBatch, every group observes exactly the same
// thing single-op consumers would: every value exactly once, per-producer
// FIFO. Run under -race in CI.
func TestLogPropertyBatchedEquivalentToSingle(t *testing.T) {
	f := func(counts [3]uint8, batchSizes [3]uint8) bool {
		l := NewLog[[2]int](16, 2)
		var wg sync.WaitGroup
		total := 0
		for p, c := range counts {
			n := int(c % 48)
			total += n
			bs := int(batchSizes[p]%5) + 1 // batch size 1..5
			wg.Add(1)
			go func(p, n, bs int) {
				defer wg.Done()
				batch := make([][2]int, 0, bs)
				for i := 0; i < n; i++ {
					if p%2 == 0 {
						// Batched producer: flush every bs values.
						batch = append(batch, [2]int{p, i})
						if len(batch) == bs || i == n-1 {
							l.AppendBatch(batch)
							batch = batch[:0]
						}
					} else {
						l.Append([2]int{p, i})
					}
				}
			}(p, n, bs)
		}
		var ok atomic.Bool
		ok.Store(true)
		var cg sync.WaitGroup
		for g := 0; g < 2; g++ {
			cg.Add(1)
			go func(g int) {
				defer cg.Done()
				next := [3]int{}
				out := make([][2]int, 3)
				if g == 1 {
					out = out[:1] // group 1 consumes in singles: same observation
				}
				seen := 0
				for seen < total {
					n := l.TryConsumeBatch(g, out)
					if n == 0 {
						runtime.Gosched()
						continue
					}
					for _, v := range out[:n] {
						if v[1] != next[v[0]] {
							ok.Store(false)
							return
						}
						next[v[0]]++
					}
					seen += n
				}
			}(g)
		}
		wg.Wait()
		cg.Wait()
		return ok.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
