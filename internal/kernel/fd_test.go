package kernel

import (
	"testing"
	"time"
)

// Linux dup(2) semantics: both descriptors refer to ONE open file
// description, so the offset moved through either is observed by the
// other. (The pre-refactor table gave every descriptor a private offset —
// a documented carve-out this test deletes.)
func TestDupSharesOffset(t *testing.T) {
	k := New()
	p := newTestProc(k)
	k.WriteFile("/f", []byte("abcdefgh"))
	fd := k.Do(p, openCall("/f", ORdwr)).Val
	dup := k.Do(p, Call{Nr: SysDup, Args: [6]uint64{fd}}).Val

	// A read through the original moves the offset the dup sees.
	if r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd, 2}}); string(r.Data) != "ab" {
		t.Fatalf("read via fd: %q", r.Data)
	}
	if r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{dup, 2}}); string(r.Data) != "cd" {
		t.Fatalf("read via dup = %q, want %q (offset must be shared)", r.Data, "cd")
	}
	// An lseek through the dup moves the offset the original sees.
	if r := k.Do(p, Call{Nr: SysLseek, Args: [6]uint64{dup, 6, SeekSet}}); !r.Ok() || r.Val != 6 {
		t.Fatalf("lseek via dup: %+v", r)
	}
	if r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd, 2}}); string(r.Data) != "gh" {
		t.Fatalf("read via fd after dup's lseek = %q, want %q", r.Data, "gh")
	}
	// Closing one descriptor must not invalidate the shared description.
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{fd}})
	if r := k.Do(p, Call{Nr: SysLseek, Args: [6]uint64{dup, 0, SeekSet}}); !r.Ok() {
		t.Fatalf("lseek after closing sibling: %v", r.Err)
	}
	if r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{dup, 8}}); string(r.Data) != "abcdefgh" {
		t.Fatalf("read after closing sibling: %q", r.Data)
	}
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{dup}})
	if n := p.OpenFDs(); n != 0 {
		t.Fatalf("%d descriptors left open", n)
	}
}

// fillFDs opens files until the table reports EMFILE, returning the fds.
func fillFDs(t *testing.T, k *Kernel, p *Proc) []uint64 {
	t.Helper()
	var fds []uint64
	for {
		r := k.Do(p, openCall("/filler", OCreat|ORdwr))
		if r.Err == EMFILE {
			return fds
		}
		if !r.Ok() {
			t.Fatalf("open: %v", r.Err)
		}
		fds = append(fds, r.Val)
	}
}

// Regression for the dupFD refcount leak: dup used to bump the shared
// object's reference count BEFORE scanning for a free slot, so an EMFILE
// failure left a pooled socket endpoint with a phantom descriptor
// reference — its last real close never reached zero and the connection
// (and its pipes) stayed pinned forever. The observable contract: after a
// failed dup, closing the one real descriptor must still tear the
// connection down (the server sees EOF).
func TestDupEMFILEDoesNotLeakReference(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 87)
	defer stop()
	p := k.NewProc(0x3000_0000, 0x7200_0000)
	sfd := k.Do(p, Call{Nr: SysSocket})
	if r := k.Do(p, Call{Nr: SysConnect, Args: [6]uint64{sfd.Val, 87}}); !r.Ok() {
		t.Fatalf("connect: %v", r.Err)
	}
	// Exhaust the descriptor table, then fail the dup.
	fillers := fillFDs(t, k, p)
	if r := k.Do(p, Call{Nr: SysDup, Args: [6]uint64{sfd.Val}}); r.Err != EMFILE {
		t.Fatalf("dup on a full table: %v, want EMFILE", r.Err)
	}
	// The failed dup must not have added a reference: this close is the
	// last one, so the server's recv must see EOF promptly. With the leak,
	// the endpoint kept a phantom ref and the server hung in recv until
	// the suite timed out.
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{sfd.Val}}); !r.Ok() {
		t.Fatalf("close: %v", r.Err)
	}
	for _, fd := range fillers {
		k.Do(p, Call{Nr: SysClose, Args: [6]uint64{fd}})
	}
	done := make(chan struct{})
	go func() {
		stop() // joins the echo server; hangs if the connection leaked
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("echo server wedged: the failed dup leaked a descriptor reference")
	}
}

// trackedBlockables reports how many objects the kernel's interrupt list
// currently pins (test helper; the list is the leak surface for failed
// syscalls that built blockable objects).
func trackedBlockables(k *Kernel) int {
	k.intMu.Lock()
	defer k.intMu.Unlock()
	return len(k.blockables)
}

// A pipe2 that fails with EMFILE must not pin its pipe on the interrupt
// list: a process stuck at the fd limit would otherwise leak one pipe
// (64 KiB buffer included) per failed call — both when no descriptor fits
// and when only the read end fit.
func TestPipe2EMFILEDoesNotPinInterruptList(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fillFDs(t, k, p)
	before := trackedBlockables(k)
	// Zero slots free: the read-end alloc fails.
	if r := k.Do(p, Call{Nr: SysPipe2}); r.Err != EMFILE {
		t.Fatalf("pipe2 on a full table: %v, want EMFILE", r.Err)
	}
	if got := trackedBlockables(k); got != before {
		t.Fatalf("failed pipe2 pinned %d object(s) on the interrupt list", got-before)
	}
	// Exactly one slot free: the read end installs, the write end fails.
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{3}}); !r.Ok() {
		t.Fatalf("close: %v", r.Err)
	}
	if r := k.Do(p, Call{Nr: SysPipe2}); r.Err != EMFILE {
		t.Fatalf("pipe2 with one free slot: %v, want EMFILE", r.Err)
	}
	if got := trackedBlockables(k); got != before {
		t.Fatalf("partially-failed pipe2 pinned %d object(s) on the interrupt list", got-before)
	}
	if n := p.OpenFDs(); n != maxFDs-3-1 {
		t.Fatalf("descriptor count %d after failed pipe2, want %d", n, maxFDs-3-1)
	}
}

// After EMFILE, closing a descriptor must make alloc succeed again at the
// freed (lowest) slot — the bitmap scan end to end.
func TestFDTableRefillsAfterEMFILE(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fds := fillFDs(t, k, p)
	if len(fds) != maxFDs-3 {
		t.Fatalf("table filled at %d fds, want %d", len(fds), maxFDs-3)
	}
	victim := fds[len(fds)/2]
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{victim}})
	r := k.Do(p, openCall("/refill", OCreat|ORdwr))
	if !r.Ok() || r.Val != victim {
		t.Fatalf("reopen after close: fd=%d err=%v, want lowest-free %d", r.Val, r.Err, victim)
	}
}

// A descriptor snapshot taken before a close must read as stale once the
// close retires the object — the guard that keeps a reader racing a
// sibling thread's close(2) from following a pooled socket endpoint into
// its next connection (the header-generation half of the fd contract).
func TestStaleSnapshotDetectedAfterClose(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 89)
	defer stop()
	p := k.NewProc(0x3000_0000, 0x7200_0000)
	sfd := k.Do(p, Call{Nr: SysSocket})
	if r := k.Do(p, Call{Nr: SysConnect, Args: [6]uint64{sfd.Val, 89}}); !r.Ok() {
		t.Fatalf("connect: %v", r.Err)
	}
	ref, errno := p.lookupFD(int(sfd.Val))
	if errno != OK {
		t.Fatalf("lookup: %v", errno)
	}
	if ref.stale() {
		t.Fatal("fresh snapshot reads as stale")
	}
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{sfd.Val}}); !r.Ok() {
		t.Fatalf("close: %v", r.Err)
	}
	if !ref.stale() {
		t.Fatal("snapshot not stale after close retired the endpoint: a racing read could follow the pooled object into a successor connection")
	}
}

// The serving connect path must stay at 0 allocations per
// connect/request/response/close cycle — hard-asserted like the replication
// hot path, so a regression fails the suite rather than only drifting a
// benchmark number. The pooled connection objects (pipes with retained
// buffers, recycled socket endpoints) and the server's reusable recv buffer
// (Call.Buf) are what hold it there.
func TestConnectPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts by design; alloc bound holds without -race")
	}
	k := New()
	stop := startEchoServer(t, k, 88)
	defer stop()
	req := []byte("GET /bench")
	buf := make([]byte, 256)
	cycle := func() {
		cc, errno := k.Connect(88)
		if errno != OK {
			t.Fatalf("connect: %v", errno)
		}
		cc.Write(req)
		if n, err := cc.Read(buf); err != nil || n == 0 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		cc.Close()
	}
	for i := 0; i < 500; i++ {
		cycle() // warm the pipe/socket/fd-entry pools and the backlog array
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Fatalf("connect path allocates %.2f/op, want 0", allocs)
	}
}
