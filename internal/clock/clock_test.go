package clock

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLamportZeroValue(t *testing.T) {
	var c Lamport
	if got := c.Now(); got != 0 {
		t.Fatalf("zero-value clock at %d, want 0", got)
	}
}

func TestLamportTickReturnsPreIncrement(t *testing.T) {
	var c Lamport
	for want := uint64(0); want < 100; want++ {
		if got := c.Tick(); got != want {
			t.Fatalf("Tick() = %d, want %d", got, want)
		}
	}
	if c.Now() != 100 {
		t.Fatalf("Now() = %d after 100 ticks, want 100", c.Now())
	}
}

func TestLamportConcurrentTicksAreUnique(t *testing.T) {
	var c Lamport
	const workers = 8
	const per = 1000
	seen := make([]map[uint64]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seen[w] = make(map[uint64]bool, per)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seen[w][c.Tick()] = true
			}
		}(w)
	}
	wg.Wait()
	all := make(map[uint64]bool, workers*per)
	for w := 0; w < workers; w++ {
		for ts := range seen[w] {
			if all[ts] {
				t.Fatalf("timestamp %d issued twice", ts)
			}
			all[ts] = true
		}
	}
	if len(all) != workers*per {
		t.Fatalf("issued %d unique stamps, want %d", len(all), workers*per)
	}
	if c.Now() != workers*per {
		t.Fatalf("final time %d, want %d", c.Now(), workers*per)
	}
}

func TestLamportInlineWait(t *testing.T) {
	// The wait idiom the replication paths use: poll Now inline (the
	// closure-taking WaitFor was removed — it allocated on the per-call
	// path and could not park).
	var c Lamport
	done := make(chan struct{})
	go func() {
		for c.Now() < 3 {
			runtime.Gosched()
		}
		close(done)
	}()
	c.Tick()
	c.Tick()
	c.Tick()
	<-done // deadlocks (test timeout) if the wait never observes 3
}

func TestWallSizeMustBePowerOfTwo(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWall(%d) did not panic", bad)
				}
			}()
			NewWall(bad)
		}()
	}
	for _, ok := range []int{1, 2, 64, 4096} {
		if w := NewWall(ok); w.Size() != ok {
			t.Errorf("NewWall(%d).Size() = %d", ok, w.Size())
		}
	}
}

func TestWallClockOfIsStable(t *testing.T) {
	w := NewWall(256)
	for addr := uint64(0); addr < 10000; addr += 7 {
		a := w.ClockOf(addr)
		b := w.ClockOf(addr)
		if a != b {
			t.Fatalf("ClockOf(%#x) unstable: %d vs %d", addr, a, b)
		}
		if a < 0 || a >= w.Size() {
			t.Fatalf("ClockOf(%#x) = %d out of range", addr, a)
		}
	}
}

func TestWallAdjacentWordsShareClock(t *testing.T) {
	// Two 32-bit variables inside one 64-bit aligned word must map to the
	// same clock (§4.5: one CMPXCHG8B can modify both).
	w := NewWall(DefaultWallSize)
	base := uint64(0x7f00_1000)
	if w.ClockOf(base) != w.ClockOf(base+4) {
		t.Fatalf("addresses %#x and %#x map to different clocks", base, base+4)
	}
}

func TestWallTickAndWait(t *testing.T) {
	w := NewWall(8)
	cid := w.ClockOf(0x1000)
	if got := w.Tick(cid); got != 0 {
		t.Fatalf("first Tick = %d, want 0", got)
	}
	if got := w.Tick(cid); got != 1 {
		t.Fatalf("second Tick = %d, want 1", got)
	}
	done := make(chan struct{})
	go func() {
		for w.Now(cid) < 3 {
			runtime.Gosched()
		}
		close(done)
	}()
	w.Tick(cid)
	<-done
}

func TestWallHashDistribution(t *testing.T) {
	// Sequential 64-byte-spaced addresses (a plausible lock layout) should
	// spread over many distinct clocks, not collapse onto a few.
	w := NewWall(1024)
	used := make(map[int]bool)
	for i := 0; i < 1024; i++ {
		used[w.ClockOf(uint64(0x6000_0000+64*i))] = true
	}
	if len(used) < 512 {
		t.Fatalf("1024 spaced addresses hit only %d clocks; hash too weak", len(used))
	}
}

// Property: Tick returns the time before the advance and strictly
// increases the clock.
func TestLamportProperties(t *testing.T) {
	f := func(seed []uint16) bool {
		var c Lamport
		var prev uint64
		for range seed {
			before := c.Now()
			got := c.Tick()
			if got != before || c.Now() != before+1 {
				return false
			}
			if c.Now() <= prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ClockOf is deterministic and in range for arbitrary addresses
// and wall sizes.
func TestWallClockOfProperty(t *testing.T) {
	sizes := []int{1, 2, 16, 256, 4096}
	f := func(addr uint64, pick uint8) bool {
		w := NewWall(sizes[int(pick)%len(sizes)])
		c := w.ClockOf(addr)
		return c >= 0 && c < w.Size() && c == w.ClockOf(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Layout guard: every master thread fetch-adds Tickets.n on every ordered
// call, and the dispenser is embedded in the monitor between other fields
// (the serving clocks' slice header among them). Fields are 8-byte aligned,
// so a 64-byte line containing n lies within [n-56, n+64) wherever the
// enclosing struct was allocated; the padding must cover all of it.
func TestTicketsLayoutIsolatesCounter(t *testing.T) {
	var tk Tickets
	off := unsafe.Offsetof(tk.n)
	if off < 56 {
		t.Errorf("n at offset %d: a preceding field can share its line, want >= 56 bytes of padding", off)
	}
	if tail := unsafe.Sizeof(tk) - off; tail < 64 {
		t.Errorf("%d bytes from n to the end of Tickets: a following field can share its line, want >= 64", tail)
	}
}
