package clock

import "sync/atomic"

// Tickets is a cache-line-isolated monotone dispenser of ordering tickets.
//
// Paired with a Lamport clock as the "now serving" word, it forms the
// ticket-ordering scheme the monitor uses for §4.1's secure system call
// ordering: a master thread Takes a ticket (one uncontended fetch-add),
// waits until the Lamport clock reaches its ticket, performs its ordered
// critical section, and Ticks the clock to pass the turn. Unlike a global
// mutex, the dispenser and the serving clock live on separate cache lines,
// so handing out tickets never invalidates the line waiters are polling,
// and an uncontended ordered call costs two uncontended atomic adds instead
// of a lock/unlock pair.
//
// The zero value is a dispenser at ticket 0, ready to use.
type Tickets struct {
	_ [56]byte // keep the counter off whatever line precedes this struct
	n atomic.Uint64
	_ [56]byte // and off whatever follows (e.g. the serving clock)
}

// Take returns the next ticket (0, 1, 2, ...). Safe for concurrent use.
func (t *Tickets) Take() uint64 { return t.n.Add(1) - 1 }
