package clock

import (
	"fmt"
	"sync/atomic"
)

// DefaultWallSize is the number of clocks in a Wall when the caller does not
// choose one. The paper pre-allocates a fixed number of clocks because the
// agents may not allocate memory dynamically (§3.3); 4096 keeps the
// collision probability low for realistic lock populations while the wall
// still fits comfortably in a shared segment.
const DefaultWallSize = 4096

// Wall is a fixed array of logical clocks onto which synchronization
// variables are mapped by hashing their address ("wall of clocks", §4.5).
// A Wall is a plausible clock: every happens-before edge between ops on the
// same variable is preserved because colliding variables share a clock;
// collisions only ever add ordering, never remove it.
//
// The zero value is not usable; create Walls with NewWall.
type Wall struct {
	clocks []atomic.Uint64
	mask   uint64
}

// NewWall returns a Wall with size clocks. Size must be a power of two so
// that the address hash can be reduced with a mask (the "cheap hash
// function" of §4.5); NewWall panics otherwise.
func NewWall(size int) *Wall {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("clock: wall size %d is not a positive power of two", size))
	}
	return &Wall{clocks: make([]atomic.Uint64, size), mask: uint64(size - 1)}
}

// Size returns the number of clocks in the wall.
func (w *Wall) Size() int { return len(w.clocks) }

// ClockOf returns the index of the clock assigned to the synchronization
// variable at address addr. Adjacent 32-bit variables sharing a 64-bit
// aligned word deliberately map to the same clock (§4.5: a single
// CMPXCHG8B could modify both), hence the >>3 before hashing.
func (w *Wall) ClockOf(addr uint64) int {
	return int(mix(addr>>3) & w.mask)
}

// Now returns the current time of clock cid.
func (w *Wall) Now(cid int) uint64 { return w.clocks[cid].Load() }

// Tick advances clock cid and returns the time before the advance, i.e. the
// timestamp to record in the sync buffer.
func (w *Wall) Tick(cid int) uint64 { return w.clocks[cid].Add(1) - 1 }

// (Wall deliberately has no WaitFor: waits on wall time are the agent's
// job — an inline poll that parks on the group's futex.Parker; see
// wocSlave.Before — and a closure-taking wait API here would allocate on
// the per-sync-op path. The old WaitFor was removed for that reason.)

// mix is a 64-bit finalizer (splitmix64-style) providing cheap, well
// distributed hashing of addresses onto clocks.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
