package kernel

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/futex"
)

// maxFDs bounds a process's descriptor table, like RLIMIT_NOFILE.
const maxFDs = 1024

// openFile is an open file description — the kernel's struct file: the
// state shared by every descriptor that refers to one open(2)/socket(2)/
// pipe2(2) result. dup(2)'d descriptors point at the SAME description, so
// they share the file offset and status flags exactly like Linux
// descriptors do (an lseek or read through one moves the offset the other
// observes). Since fork(2) landed, descriptions are also shared ACROSS
// processes: the child's descriptor table references the parent's
// descriptions, which is why refs and gen are atomics — a close in the
// child and a close in the parent run under different Proc locks.
//
// Descriptions are pooled per process (Proc.free): the close that drops
// the last reference pushes the retired entry onto ITS process's freelist
// and the next alloc there pops it, so the descriptor-install on the
// serving accept path costs zero allocations in steady state. Retirement
// bumps gen; an fdRef snapshot taken before the close fails its
// generation check under mu instead of reading a successor descriptor's
// offset.
type openFile struct {
	// mu guards offset against concurrent seekable operations (two
	// threads reading one dup'd descriptor race the shared offset) and
	// gates the generation check for offset-carrying ops.
	mu     sync.Mutex
	obj    object
	offset int64
	flags  int
	// refs counts descriptor-table references across ALL processes
	// sharing the description (dup and fork add one each); the close
	// that drops it to zero releases obj. An entry live in any table
	// pins refs >= 1, so retirement can never race a lookup.
	refs atomic.Int32
	// gen is the entry's reuse generation: bumped at retirement under
	// openFile.mu, read atomically anywhere.
	gen atomic.Uint64
}

// fdRef is a point-in-time snapshot of one descriptor: the description,
// its object, and the generations observed at lookup. Operations validate
// the entry generation before committing state (offset moves) and the
// object-header generation before touching pooled stream objects, so a
// reference that outlives its descriptor — another thread's close(2)
// racing a read — degrades to EBADF instead of acting on a recycled
// entry or a socket endpoint re-attached to a successor connection. (The
// check-then-act window is a few instructions; fully closing it would
// require per-op locks on the stream hot path, and it only opens when a
// guest uses an fd after closing it — a program bug.) fdRef is a value
// type: taking a snapshot allocates nothing.
type fdRef struct {
	ent    *openFile
	obj    object
	flags  int    // the description's open flags (immutable after alloc)
	gen    uint64 // ent's generation at lookup
	objGen uint64 // obj's header generation at lookup
}

// accessMode returns the O_RDONLY/O_WRONLY/O_RDWR bits of the shared
// description's flags — the access-mode check for seekable objects lives
// in the kernel handlers, on the description, because that is the state
// dup(2)'d descriptors share (streams enforce direction in the object).
func (r fdRef) accessMode() int { return r.flags & 0x3 }

// stale reports whether the object behind the snapshot has been retired
// (and possibly recycled) since lookup. One atomic load.
func (r fdRef) stale() bool { return r.obj.header().generation() != r.objGen }

// fdTable is the slab-backed descriptor table: an allocation bitmap for
// the lowest-free scan (the kernel behaviour whose cross-variant
// visibility motivates syscall ordering in the first place, §3.1) plus a
// dense slot array. The bitmap makes alloc O(maxFDs/64) words instead of
// the old map's O(maxFDs) probe loop, and the slots are plain pointers —
// no hashing, no bucket churn.
type fdTable struct {
	// used bit fd = descriptor live. Bits 0-2 are permanently set
	// (stdin/stdout/stderr reserved), so the lowest-free scan lands at 3
	// without a special case.
	used  [maxFDs / 64]uint64
	slots []*openFile // grown on demand; slots[fd] valid while bit fd is set
}

func (t *fdTable) init() { t.used[0] = 0b111 }

// alloc claims the lowest free descriptor and returns it, or false when
// the table is full (EMFILE). Callers hold Proc.mu.
func (t *fdTable) alloc() (int, bool) {
	for w := range t.used {
		free := ^t.used[w]
		if free == 0 {
			continue
		}
		b := bits.TrailingZeros64(free)
		fd := w<<6 | b
		t.used[w] |= 1 << uint(b)
		for len(t.slots) <= fd {
			t.slots = append(t.slots, nil)
		}
		return fd, true
	}
	return -1, false
}

// get returns the live entry at fd, or nil.
func (t *fdTable) get(fd int) *openFile {
	if fd < 3 || fd >= maxFDs || fd >= len(t.slots) ||
		t.used[fd>>6]&(1<<uint(fd&63)) == 0 {
		return nil
	}
	return t.slots[fd]
}

func (t *fdTable) set(fd int, e *openFile) { t.slots[fd] = e }

// install claims a SPECIFIC descriptor number and maps it to e, growing
// the slot array as needed — the fork path, which must mirror the
// parent's descriptor numbers rather than take the lowest free slot. The
// bitmap/slot representation stays private to fdTable.
func (t *fdTable) install(fd int, e *openFile) {
	t.used[fd>>6] |= 1 << uint(fd&63)
	for len(t.slots) <= fd {
		t.slots = append(t.slots, nil)
	}
	t.slots[fd] = e
}

func (t *fdTable) clear(fd int) {
	t.used[fd>>6] &^= 1 << uint(fd&63)
	t.slots[fd] = nil
}

// count returns the number of live user descriptors (excluding the three
// reserved stdio bits).
func (t *fdTable) count() int {
	n := 0
	for _, w := range t.used {
		n += bits.OnesCount64(w)
	}
	return n - 3
}

// Proc is the kernel-side state of one simulated process. Each variant's
// root process anchors a tree grown by SysFork; the tree shares a pid
// namespace and a thread-id space (see process.go) and each process
// carries its own descriptor table, address space, and signal table.
type Proc struct {
	// Pid is the kernel-internal process id: globally unique across every
	// variant (it keys the futex namespaces). The GUEST-visible pid is
	// vpid, deterministic across variants; SysGetpid returns that one.
	Pid int
	AS  *AddressSpace

	mu  sync.Mutex
	fdt fdTable
	// free pools retired open-file descriptions for reuse by the next
	// alloc; see openFile.
	free []*openFile

	// Process-tree state, guarded by Kernel.treeMu (see process.go).
	kern     *Kernel
	ns       *pidNamespace
	vpid     int
	parent   *Proc
	children []*Proc
	state    int
	status   int
	// autoReap marks a child a slave's waitpid record already reaped in
	// the master: the child frees itself at its own (later) local exit.
	autoReap bool

	// threads counts the process's LIVE threads, guarded by Kernel.treeMu:
	// 1 at creation (the initial thread), +1 per successful clone, -1 per
	// SysThreadExit/SysExit. The zombie transition happens when the count
	// reaches zero with the exit-group flag raised (see doExit).
	threads int

	// tids allocates thread ids tree-wide (see tidSpace).
	tids *tidSpace

	// Signal table (see signal.go). The pending/blocked/ignored masks are
	// atomics so the deliverable predicate polled by blocking kernel ops
	// is lock-free; sigMu serializes read-modify-write transitions.
	sigMu      sync.Mutex
	sigPending atomic.Uint64
	sigBlocked atomic.Uint64
	sigIgnored atomic.Uint64
	sigDisp    [maxSig + 1]uint8
	// sigPark parks nanosleep; kill wakes it. (Other blocking sites park
	// on their object's cond or the kernel poll wait set.)
	sigPark futex.Parker
	// exitGroup is raised (inside the ordered SysExit) by the first thread
	// to exit the process; sibling threads observe it at their next
	// syscall boundary (BoundarySig) or blocking-op wakeup (blocker.interrupted)
	// and unwind.
	exitGroup atomic.Bool

	// board, when non-nil, is the deadlock detector's blocked-site board.
	// It is armed on a session's MASTER root process only (slaves replay
	// the master's schedule, so detection on the master speaks for all) and
	// inherited by forked children. Set before the process serves calls;
	// read without synchronization on every blocking path (one nil check —
	// the disarmed cost).
	board *BlockBoard
}

// NewProc creates a root process with an empty descriptor table
// (descriptors 0-2 are reserved, as stdin/stdout/stderr would be), the
// given address space, and a fresh pid namespace in which it is pid 1.
func NewProc(pid int, as *AddressSpace) *Proc {
	p := &Proc{Pid: pid, AS: as, vpid: 1, threads: 1}
	p.fdt.init()
	p.ns = &pidNamespace{nextVpid: 2, byVpid: map[int]*Proc{1: p}}
	p.tids = &tidSpace{next: 1}
	p.sigIgnored.Store(defaultIgnored)
	return p
}

// Threads reports p's live thread count (for tests and the admin plane).
func (p *Proc) Threads() int {
	if p.kern == nil {
		return p.threads
	}
	p.kern.treeMu.Lock()
	defer p.kern.treeMu.Unlock()
	return p.threads
}

// Vpid returns the guest-visible process id: 1 for a variant's root
// process, 2, 3, … for forked children in fork order — identical across
// variants because fork is an ordered syscall.
func (p *Proc) Vpid() int { return p.vpid }

// getEntry pops a pooled description (its gen was bumped at retirement) or
// makes a fresh one. Callers hold p.mu.
func (p *Proc) getEntry() *openFile {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return e
	}
	return &openFile{}
}

// allocFD installs obj at the lowest free descriptor >= 3 with the given
// status flags and initial offset.
func (p *Proc) allocFD(obj object, flags int, offset int64) (int, Errno) {
	p.mu.Lock()
	fd, ok := p.fdt.alloc()
	if !ok {
		p.mu.Unlock()
		return -1, EMFILE
	}
	e := p.getEntry()
	e.obj, e.flags, e.offset = obj, flags, offset
	e.refs.Store(1)
	p.fdt.set(fd, e)
	p.mu.Unlock()
	return fd, OK
}

// lookupFD snapshots descriptor fd. The snapshot is valid by construction
// at the moment it is taken (the entry is live in the table under p.mu,
// which pins refs >= 1 and therefore blocks retirement); offset-committing
// operations revalidate ref.gen under ent.mu before acting, so a close
// racing in between degrades the op to EBADF.
func (p *Proc) lookupFD(fd int) (fdRef, Errno) {
	p.mu.Lock()
	e := p.fdt.get(fd)
	if e == nil {
		p.mu.Unlock()
		return fdRef{}, EBADF
	}
	ref := fdRef{ent: e, obj: e.obj, flags: e.flags, gen: e.gen.Load(), objGen: e.obj.header().generation()}
	p.mu.Unlock()
	return ref, OK
}

// revalidateLocked reports whether descriptor fd still maps to the
// snapshot ref — same description at the same generation. Used by
// handlers that install state into the entry after a window in which a
// concurrent close(2) could have retired it. Callers hold p.mu.
func (p *Proc) revalidateLocked(fd int, ref fdRef) bool {
	cur := p.fdt.get(fd)
	return cur == ref.ent && cur.gen.Load() == ref.gen
}

func (p *Proc) closeFD(fd int) Errno {
	p.mu.Lock()
	e := p.fdt.get(fd)
	if e == nil {
		p.mu.Unlock()
		return EBADF
	}
	p.fdt.clear(fd)
	// The slot is cleared before the reference drops: once refs hits
	// zero, no table anywhere still maps the entry, so the retirement
	// below cannot race a lookup in a process sharing the description.
	last := e.refs.Add(-1) == 0
	var obj object
	if last {
		obj = e.obj
		// Retire the description: bump gen (under ent.mu, so in-flight
		// offset ops serialize against it), drop the object reference, and
		// pool the entry for this process's next alloc.
		e.mu.Lock()
		e.gen.Add(1)
		e.obj = nil
		e.mu.Unlock()
		p.free = append(p.free, e)
	}
	p.mu.Unlock()
	if last {
		return obj.close()
	}
	return OK
}

// dupFD installs a second descriptor referring to the SAME open file
// description — Linux dup(2) semantics: offset and flags are shared, and
// the object is released only when the last descriptor closes.
//
// The free slot is secured BEFORE any reference count moves: the previous
// implementation bumped the object's refcount first and leaked the
// reference when the slot scan came back EMFILE, leaving a pooled socket
// endpoint pinned forever (its last close never reached zero).
func (p *Proc) dupFD(fd int) (int, Errno) {
	p.mu.Lock()
	e := p.fdt.get(fd)
	if e == nil {
		p.mu.Unlock()
		return -1, EBADF
	}
	nfd, ok := p.fdt.alloc()
	if !ok {
		p.mu.Unlock()
		return -1, EMFILE // nothing was touched; no reference leaked
	}
	e.refs.Add(1)
	p.fdt.set(nfd, e)
	p.mu.Unlock()
	return nfd, OK
}

// OpenFDs reports the number of live descriptors (for tests).
func (p *Proc) OpenFDs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fdt.count()
}

// NextTid allocates a thread id. Tids come from the process TREE's shared
// space (fork children's threads must not collide with the parent's: the
// monitor's syscall rings are per-tid). The monitor calls this inside the
// ordered clone critical section so that corresponding threads receive
// identical tids in every variant.
func (p *Proc) NextTid() int { return p.tids.take() }

// SetBlockBoard arms the deadlock detector on this process: every internal
// blocking site its threads sleep at will register a cell on b. Arm the
// master root process only, before it serves calls; forked children
// inherit the board.
func (p *Proc) SetBlockBoard(b *BlockBoard) { p.board = b }

// blk builds the calling thread's blocker (block.go) for the sleep sites
// of one call. A plain value on the caller's stack: no allocation.
func (p *Proc) blk(tid, fd int) blocker { return blocker{p: p, tid: tid, fd: fd} }
