package ring

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// observe produces 0..total-1 into a fresh two-group log in runs of the
// given sizes — through Append, or through ReserveN + Slot + Commit — while
// both groups consume in place (Ready, read through Slot, then Advance), and
// returns what each group read. The producer checks on every reservation
// that it was never handed a slot a group had not released: the
// back-pressure-at-capacity half of the property. Cursors only grow, so
// checking after the fact is sound.
func observe(t *testing.T, capacity int, runs []int, reserve bool) [2][]uint64 {
	t.Helper()
	l := NewLog[uint64](capacity, 2)
	total := 0
	for _, n := range runs {
		total += n
	}
	var wg sync.WaitGroup
	var seen [2][]uint64
	for g := range seen {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(0); seq < uint64(total); seq++ {
				for !l.Ready(seq) {
					runtime.Gosched()
				}
				p := l.Slot(seq)
				if g == 1 && seq%3 == 0 {
					runtime.Gosched() // a reader dawdling over a record it still holds
				}
				seen[g] = append(seen[g], *p)
				l.Advance(g, seq)
			}
		}(g)
	}
	next := uint64(0)
	for _, n := range runs {
		if !reserve {
			for i := 0; i < n; i++ {
				l.Append(next)
				next++
			}
			continue
		}
		seq := l.ReserveN(n)
		if last := seq + uint64(n) - 1; last >= l.minCursor()+uint64(l.Cap()) {
			t.Errorf("ReserveN(%d) returned [%d, %d] with the slowest cursor at %d: past capacity %d",
				n, seq, last, l.minCursor(), l.Cap())
		}
		for i := 0; i < n; i++ {
			*l.Slot(seq + uint64(i)) = next
			l.Commit(seq + uint64(i))
			next++
		}
	}
	wg.Wait()
	return seen
}

// Property: ReserveN + Slot + Commit is observationally equal to Append —
// the same values in the same order to every group, never more than a
// ring's worth in flight — at the capacities where the producer laps the
// ring constantly (2, 4) and the remembered cursor is stale on almost every
// reservation. Run under -race in CI: a slot handed out early is a data
// race between the producer's write and a reader still holding the pointer.
func TestLogPropertyReserveCommitEquivalentToAppend(t *testing.T) {
	f := func(sizes []uint8, capSel uint8) bool {
		capacity := 2 << (capSel % 3) // 2, 4, 8
		runs := make([]int, len(sizes))
		for i, s := range sizes {
			runs[i] = int(s)%capacity + 1
		}
		appended := observe(t, capacity, runs, false)
		reserved := observe(t, capacity, runs, true)
		for g := range appended {
			if !slices.Equal(appended[g], reserved[g]) {
				t.Errorf("group %d: Append observed %v, ReserveN/Commit %v", g, appended[g], reserved[g])
				return false
			}
			for i, v := range reserved[g] {
				if v != uint64(i) {
					t.Errorf("group %d read %d at position %d", g, v, i)
					return false
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The remembered cursor may be stale in one direction only. Too low, it
// sends ReserveN to the live cursors, which find the room the consumer has
// made since — stopped or not, a log with room never blocks; and when the
// ring really is full there, a stopped log unwinds with ErrStopped, exactly
// like Append (TestStopUnblocksFullRingAppendPromptly).
func TestReserveNWithStaleCursor(t *testing.T) {
	l := NewLog[int](2, 1)
	var stop atomic.Bool
	stop.Store(true)
	l.SetStop(&stop)
	fill := func(n int) {
		seq := l.ReserveN(n)
		for i := 0; i < n; i++ {
			*l.Slot(seq + uint64(i)) = int(seq) + i
			l.Commit(seq + uint64(i))
		}
	}
	fill(2) // minSeen 0: the ring looks (and is) full
	l.Advance(0, 0)
	l.Advance(0, 1)
	fill(2) // looks full, is empty: must not block
	l.Advance(0, 2)
	fill(1) // looks full, has one free slot
	if got := []int{*l.Slot(3), *l.Slot(4)}; !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("slots hold %v, want [3 4]", got)
	}
	defer func() {
		if recover() != ErrStopped {
			t.Fatal("ReserveN on a stopped full ring did not panic ErrStopped")
		}
	}()
	l.ReserveN(1) // full by any reading
}

// ReserveN's remembered cursor is a plain word: two producers reserving at
// once would corrupt it. -race builds assert the contract instead — a
// ReserveN that overlaps another (here: one parked on a full ring) panics
// before it touches anything.
func TestOverlappingReserveNPanicsUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("the single-producer assertion is compiled into -race builds only")
	}
	l := NewLog[int](2, 1)
	l.ReserveN(2)
	first := make(chan uint64)
	go func() { first <- l.ReserveN(1) }() // full: waits for the consumer
	for !l.reserving.Load() {
		runtime.Gosched()
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "single-producer") {
				t.Errorf("overlapping ReserveN recovered %q, want the single-producer panic", msg)
			}
		}()
		l.ReserveN(1)
	}()
	for seq := uint64(0); seq < 2; seq++ {
		l.Commit(seq)
		l.Advance(0, seq)
	}
	if seq := <-first; seq != 2 {
		t.Fatalf("the parked reservation returned %d, want 2", seq)
	}
	if l.ReserveN(1); l.reserving.Load() { // sequential calls stay legal
		t.Fatal("reserving still set after ReserveN returned")
	}
}

// Layout guard: prod is written on every append and minSeen on every
// reservation that goes to the cursors, both by the producer; no line that
// holds them may hold a word anyone else writes — or reads at rate, which
// covers every other field. The check is alignment-independent: fields are
// 8-byte aligned, so a 64-byte line containing prod lies within
// [prod-56, prod+64) wherever the allocator put the Log.
func TestLogLayoutIsolatesProducerWords(t *testing.T) {
	var l Log[uint64]
	prod, seen := unsafe.Offsetof(l.prod), unsafe.Offsetof(l.minSeen)
	before := unsafe.Offsetof(l.stop) + unsafe.Sizeof(l.stop)
	after := unsafe.Offsetof(l.cursors)
	if seen != prod+8 {
		t.Errorf("minSeen at %d, want next to prod at %d", seen, prod)
	}
	if prod-before < cacheLine-8 {
		t.Errorf("only %d bytes between the fields before prod and prod, want >= %d", prod-before, cacheLine-8)
	}
	if after-prod < cacheLine {
		t.Errorf("cursors start %d bytes after prod, want >= %d", after-prod, cacheLine)
	}
	if unsafe.Offsetof(l.waitQ) < after {
		t.Error("waitQ moved in front of cursors; extend this guard to it")
	}
	if sz := unsafe.Sizeof(paddedCursor{}); sz%cacheLine != 0 {
		t.Errorf("paddedCursor is %d bytes, not a multiple of the line: adjacent groups' cursors share one", sz)
	}
}
