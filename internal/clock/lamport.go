// Package clock provides the logical-clock machinery used by the MVEE.
//
// Two kinds of clocks appear in the paper:
//
//   - A Lamport logical clock per monitor (the "syscall ordering clock",
//     §4.1) that stamps ordered system calls in the master variant and is
//     advanced in the slave variants as they consume those stamps.
//   - A "wall of clocks" (§4.5): a fixed-size array of logical clocks onto
//     which synchronization variables are hashed. The wall is a plausible
//     clock in the sense of Torres-Rojas and Ahamad: it never misses a
//     happens-before edge, though hash collisions may introduce spurious
//     ordering.
package clock

import (
	"fmt"
	"sync/atomic"
)

// Lamport is a monotonically increasing logical clock. The zero value is a
// clock at time 0, ready to use. All methods are safe for concurrent use.
type Lamport struct {
	t atomic.Uint64
}

// Now returns the current time on the clock.
func (c *Lamport) Now() uint64 { return c.t.Load() }

// Tick advances the clock by one and returns the time *before* the advance.
// This matches the paper's usage: the master records the current time into
// the buffer and then increments the clock.
func (c *Lamport) Tick() uint64 { return c.t.Add(1) - 1 }

// Waiting for a clock value is the caller's job, not this package's: the
// replication paths test Now inline and hand the comparison to ring.Await
// with the wait set their ticker wakes.

// String implements fmt.Stringer.
func (c *Lamport) String() string { return fmt.Sprintf("L(%d)", c.Now()) }
