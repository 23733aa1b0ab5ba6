package kernel

import (
	"sort"
	"sync"
	"time"
)

// Clock is the kernel's time source. Every deadline site in the kernel —
// nanosleep, poll timeouts, gettimeofday, fault-injection delays — reads
// time and arms timers through this interface instead of the time package,
// so tests and soaks can substitute virtual or accelerated time for wall
// time. The fleet's request watchdog arms its timers on the session Clock
// too, which is what lets a whole chaos soak run at -time-scale 10 without
// dilating the test's real-time budget.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// AfterFunc arms a one-shot timer that calls f once d has elapsed on
	// this clock. f runs on an unspecified goroutine, like time.AfterFunc.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a stoppable one-shot timer handle, the Clock-level analogue of
// *time.Timer restricted to what the kernel needs.
type Timer interface {
	// Stop cancels the timer; it reports whether the cancellation
	// prevented the callback from firing.
	Stop() bool
}

// realClock is the default Clock: straight delegation to the time package.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// RealClock returns the wall-clock time source, the default for every
// kernel.
func RealClock() Clock { return realClock{} }

// NewScaledClock returns a clock on which time passes scale times faster
// than wall time: Now advances at scale× real rate and timers fire after
// d/scale of real time. A 10× clock turns a 2 ms injected latency into
// 200 µs of real delay — the -time-scale knob. Scale values at or below
// zero (and exactly 1) degenerate to the real clock.
func NewScaledClock(scale float64) Clock {
	if scale <= 0 || scale == 1 {
		return realClock{}
	}
	return &scaledClock{base: time.Now(), scale: scale}
}

type scaledClock struct {
	base  time.Time
	scale float64
}

func (c *scaledClock) Now() time.Time {
	return c.base.Add(time.Duration(float64(time.Since(c.base)) * c.scale))
}

func (c *scaledClock) AfterFunc(d time.Duration, f func()) Timer {
	real := time.Duration(float64(d) / c.scale)
	if real <= 0 {
		real = 1
	}
	return time.AfterFunc(real, f)
}

// VirtualClock is a manually advanced clock for deterministic tests: time
// stands perfectly still until Advance moves it, at which point every timer
// whose deadline was reached fires synchronously (in deadline order, on the
// caller's goroutine) before Advance returns. This is what converts "sleep
// 20 ms and hope the poller timed out" tests into exact, flake-free ones.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*virtualTimer
}

// NewVirtualClock returns a virtual clock positioned at an arbitrary fixed
// epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Unix(1000000, 0)}
}

// Now returns the virtual instant; it changes only via Advance.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc registers f to run when the virtual clock reaches now+d. A
// non-positive d fires synchronously, matching time.AfterFunc's semantics
// closely enough for deadline loops.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	t := &virtualTimer{clock: c, when: c.now.Add(d), f: f}
	if d <= 0 {
		t.fired = true
		c.mu.Unlock()
		f()
		return t
	}
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t
}

// Timers reports how many timers are currently armed (registered, not yet
// fired or stopped). Deterministic tests use it to know a deadline loop
// has armed its wake before Advancing past the deadline — advancing
// earlier could fire into the void while the sleeper is still computing
// its remaining time. (A wake landing between the sleeper's Prepare and
// Park is safe: the parker protocol absorbs it.)
func (c *VirtualClock) Timers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// Advance moves the clock forward by d and fires every timer whose deadline
// is now due, in deadline order, before returning.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []*virtualTimer
	remaining := c.timers[:0]
	for _, t := range c.timers {
		if !t.when.After(now) {
			t.fired = true
			due = append(due, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	// Zero the freed tail so fired timers don't stay pinned by the
	// backing array.
	for i := len(remaining); i < len(c.timers); i++ {
		c.timers[i] = nil
	}
	c.timers = remaining
	c.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].when.Before(due[j].when) })
	for _, t := range due {
		t.f()
	}
}

type virtualTimer struct {
	clock *VirtualClock
	when  time.Time
	f     func()
	fired bool
}

// Stop deregisters the timer; it reports whether the timer had not yet
// fired.
func (t *virtualTimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.fired {
		return false
	}
	t.fired = true
	for i, x := range c.timers {
		if x == t {
			last := len(c.timers) - 1
			c.timers[i] = c.timers[last]
			c.timers[last] = nil
			c.timers = c.timers[:last]
			break
		}
	}
	return true
}
