package kernel

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

func newTestProc(k *Kernel) *Proc {
	return k.NewProc(0x0800_0000, 0x7000_0000)
}

func openCall(path string, flags int) Call {
	return Call{Nr: SysOpen, Args: [6]uint64{uint64(flags)}, Data: []byte(path)}
}

func TestOpenMissingFile(t *testing.T) {
	k := New()
	p := newTestProc(k)
	if r := k.Do(p, openCall("/nope", ORdonly)); r.Err != ENOENT {
		t.Fatalf("open missing file: err = %v, want ENOENT", r.Err)
	}
}

func TestOpenCreateWriteReadRoundtrip(t *testing.T) {
	k := New()
	p := newTestProc(k)
	r := k.Do(p, openCall("/data", OCreat|ORdwr))
	if !r.Ok() {
		t.Fatalf("open: %v", r.Err)
	}
	fd := r.Val
	payload := []byte("hello, mvee")
	w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{fd}, Data: payload})
	if !w.Ok() || w.Val != uint64(len(payload)) {
		t.Fatalf("write: %+v", w)
	}
	// Seek back and read.
	if s := k.Do(p, Call{Nr: SysLseek, Args: [6]uint64{fd, 0, SeekSet}}); !s.Ok() || s.Val != 0 {
		t.Fatalf("lseek: %+v", s)
	}
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd, 64}})
	if !rd.Ok() || !bytes.Equal(rd.Data, payload) {
		t.Fatalf("read back %q, want %q (err %v)", rd.Data, payload, rd.Err)
	}
	if c := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{fd}}); !c.Ok() {
		t.Fatalf("close: %v", c.Err)
	}
	if c := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{fd}}); c.Err != EBADF {
		t.Fatalf("double close err = %v, want EBADF", c.Err)
	}
}

func TestLowestFreeFDAllocation(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fd1 := k.Do(p, openCall("/a", OCreat|ORdwr)).Val
	fd2 := k.Do(p, openCall("/b", OCreat|ORdwr)).Val
	fd3 := k.Do(p, openCall("/c", OCreat|ORdwr)).Val
	if fd1 != 3 || fd2 != 4 || fd3 != 5 {
		t.Fatalf("fds = %d,%d,%d; want 3,4,5", fd1, fd2, fd3)
	}
	// Close the middle one; the next open must reuse it (lowest free).
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{fd2}})
	fd4 := k.Do(p, openCall("/d", OCreat|ORdwr)).Val
	if fd4 != 4 {
		t.Fatalf("reopened fd = %d, want lowest-free 4", fd4)
	}
}

func TestOExclFailsOnExisting(t *testing.T) {
	k := New()
	p := newTestProc(k)
	if r := k.Do(p, openCall("/x", OCreat)); !r.Ok() {
		t.Fatal(r.Err)
	}
	if r := k.Do(p, openCall("/x", OCreat|OExcl)); r.Err != EEXIST {
		t.Fatalf("O_EXCL on existing: err = %v, want EEXIST", r.Err)
	}
}

func TestOTruncAndOAppend(t *testing.T) {
	k := New()
	p := newTestProc(k)
	k.WriteFile("/f", []byte("0123456789"))
	fd := k.Do(p, openCall("/f", OWronly|OAppend)).Val
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{fd}, Data: []byte("ab")})
	got, _ := k.ReadFile("/f")
	if string(got) != "0123456789ab" {
		t.Fatalf("append produced %q", got)
	}
	fd2 := k.Do(p, openCall("/f", OWronly|OTrunc)).Val
	_ = fd2
	got, _ = k.ReadFile("/f")
	if len(got) != 0 {
		t.Fatalf("O_TRUNC left %q", got)
	}
}

func TestReadOnWriteOnlyFD(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fd := k.Do(p, openCall("/f", OCreat|OWronly)).Val
	if r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd, 8}}); r.Err != EBADF {
		t.Fatalf("read on O_WRONLY: err = %v, want EBADF", r.Err)
	}
	fd2 := k.Do(p, openCall("/f", ORdonly)).Val
	if r := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{fd2}, Data: []byte("x")}); r.Err != EBADF {
		t.Fatalf("write on O_RDONLY: err = %v, want EBADF", r.Err)
	}
}

func TestPreadPwriteDoNotMoveOffset(t *testing.T) {
	k := New()
	p := newTestProc(k)
	k.WriteFile("/f", []byte("abcdefgh"))
	fd := k.Do(p, openCall("/f", ORdwr)).Val
	r := k.Do(p, Call{Nr: SysPread, Args: [6]uint64{fd, 4, 2}})
	if !r.Ok() || string(r.Data) != "cdef" {
		t.Fatalf("pread = %q (%v)", r.Data, r.Err)
	}
	// Offset must still be at 0.
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd, 2}})
	if string(rd.Data) != "ab" {
		t.Fatalf("offset moved by pread: read %q", rd.Data)
	}
	k.Do(p, Call{Nr: SysPwrite, Args: [6]uint64{fd, 6}, Data: []byte("ZZ")})
	got, _ := k.ReadFile("/f")
	if string(got) != "abcdefZZ" {
		t.Fatalf("pwrite produced %q", got)
	}
}

func TestStatAndUnlink(t *testing.T) {
	k := New()
	p := newTestProc(k)
	k.WriteFile("/s", []byte("12345"))
	if r := k.Do(p, Call{Nr: SysStat, Data: []byte("/s")}); !r.Ok() || r.Val != 5 {
		t.Fatalf("stat: %+v", r)
	}
	if r := k.Do(p, Call{Nr: SysUnlink, Data: []byte("/s")}); !r.Ok() {
		t.Fatalf("unlink: %v", r.Err)
	}
	if r := k.Do(p, Call{Nr: SysStat, Data: []byte("/s")}); r.Err != ENOENT {
		t.Fatalf("stat after unlink: %v, want ENOENT", r.Err)
	}
}

func TestPipeBlockingAndEOF(t *testing.T) {
	k := New()
	p := newTestProc(k)
	r := k.Do(p, Call{Nr: SysPipe2})
	if !r.Ok() {
		t.Fatal(r.Err)
	}
	rfd, wfd := r.Val, r.Val2
	got := make(chan string, 1)
	go func() {
		rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 16}})
		got <- string(rd.Data)
	}()
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("ping")})
	if s := <-got; s != "ping" {
		t.Fatalf("pipe read %q", s)
	}
	// Close writer; reader must see EOF (n==0, OK).
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{wfd}})
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 16}})
	if !rd.Ok() || rd.Val != 0 {
		t.Fatalf("read after writer close: %+v", rd)
	}
}

func TestPipeWaitersCountsParkedReaders(t *testing.T) {
	k := New()
	p := newTestProc(k)
	r := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := int(r.Val), int(r.Val2)
	if n := p.PipeWaiters(rfd); n != 0 {
		t.Fatalf("idle pipe has %d waiters", n)
	}
	done := make(chan struct{})
	go func() {
		k.Do(p, Call{Nr: SysRead, Args: [6]uint64{uint64(rfd), 16}})
		close(done)
	}()
	// Either end names the pipe; the count rises once the reader sleeps.
	for p.PipeWaiters(wfd) == 0 {
		runtime.Gosched()
	}
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{uint64(wfd)}, Data: []byte("go")})
	<-done
	if n := p.PipeWaiters(rfd); n != 0 {
		t.Fatalf("%d waiters after the read returned", n)
	}
	fd := int(k.Do(p, Call{Nr: SysOpen, Args: [6]uint64{OCreat | OWronly}, Data: []byte("/f")}).Val)
	if n := p.PipeWaiters(fd) + p.PipeWaiters(999); n != 0 {
		t.Fatalf("non-pipe descriptors report %d waiters", n)
	}
}

func TestPipeWriteAfterReaderCloseIsEPIPE(t *testing.T) {
	k := New()
	p := newTestProc(k)
	r := k.Do(p, Call{Nr: SysPipe2})
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{r.Val}})
	w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{r.Val2}, Data: []byte("x")})
	if w.Err != EPIPE {
		t.Fatalf("write to broken pipe: %v, want EPIPE", w.Err)
	}
}

func TestBrk(t *testing.T) {
	as := NewAddressSpace(0x1000, 0x7000_0000)
	if got := as.Brk(0); got != 0x1000 {
		t.Fatalf("initial brk = %#x", got)
	}
	if got := as.Brk(0x5000); got != 0x5000 {
		t.Fatalf("brk grow = %#x", got)
	}
	if got := as.Brk(0x10); got != 0x5000 {
		t.Fatalf("brk below base accepted: %#x", got)
	}
}

func TestMmapMunmap(t *testing.T) {
	as := NewAddressSpace(0x1000, 0x7000_0000)
	a1, errno := as.Mmap(100)
	if errno != OK || a1 != 0x7000_0000 {
		t.Fatalf("mmap = %#x, %v", a1, errno)
	}
	a2, _ := as.Mmap(PageSize + 1)
	if a2 <= a1 {
		t.Fatalf("second region %#x not above first %#x", a2, a1)
	}
	if !as.Mapped(a1) || !as.Mapped(a2) {
		t.Fatal("regions not mapped")
	}
	if errno := as.Munmap(a1, 100); errno != OK {
		t.Fatalf("munmap: %v", errno)
	}
	if as.Mapped(a1) {
		t.Fatal("region still mapped after munmap")
	}
	if errno := as.Munmap(a1, 100); errno != EINVAL {
		t.Fatalf("double munmap: %v, want EINVAL", errno)
	}
	if errno := as.Munmap(a2, 5); errno != EINVAL {
		t.Fatalf("partial munmap: %v, want EINVAL", errno)
	}
}

func TestMmapZeroLength(t *testing.T) {
	as := NewAddressSpace(0x1000, 0x7000_0000)
	if _, errno := as.Mmap(0); errno != EINVAL {
		t.Fatalf("mmap(0): %v, want EINVAL", errno)
	}
}

func TestClockStrictlyIncreases(t *testing.T) {
	k := New()
	p := newTestProc(k)
	var prev uint64
	for i := 0; i < 1000; i++ {
		r := k.Do(p, Call{Nr: SysGettimeofday})
		if r.Val <= prev {
			t.Fatalf("clock went backwards: %d after %d", r.Val, prev)
		}
		prev = r.Val
	}
}

func TestSocketLoopback(t *testing.T) {
	k := New()
	p := newTestProc(k)
	sfd := k.Do(p, Call{Nr: SysSocket}).Val
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{sfd, 8080, 16}}); !r.Ok() {
		t.Fatalf("listen: %v", r.Err)
	}
	// Client connects from outside the MVEE.
	connected := make(chan ClientConn, 1)
	go func() {
		cc, errno := k.Connect(8080)
		if errno != OK {
			t.Errorf("connect: %v", errno)
			connected <- ClientConn{}
			return
		}
		cc.Write([]byte("GET /"))
		connected <- cc
	}()
	acc := k.Do(p, Call{Nr: SysAccept, Args: [6]uint64{sfd}})
	if !acc.Ok() {
		t.Fatalf("accept: %v", acc.Err)
	}
	cfd := acc.Val
	req := k.Do(p, Call{Nr: SysRecv, Args: [6]uint64{cfd, 64}})
	if string(req.Data) != "GET /" {
		t.Fatalf("server received %q", req.Data)
	}
	k.Do(p, Call{Nr: SysSend, Args: [6]uint64{cfd}, Data: []byte("200 OK")})
	cc := <-connected
	if cc.c.fromServer == nil {
		t.Fatal("client failed")
	}
	buf := make([]byte, 64)
	n, err := cc.Read(buf)
	if err != nil || string(buf[:n]) != "200 OK" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	k := New()
	if _, errno := k.Connect(9999); errno != ECONNREFUSED {
		t.Fatalf("connect: %v, want ECONNREFUSED", errno)
	}
}

func TestBindPortCollision(t *testing.T) {
	k := New()
	p := newTestProc(k)
	s1 := k.Do(p, Call{Nr: SysSocket}).Val
	s2 := k.Do(p, Call{Nr: SysSocket}).Val
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{s1, 80, 4}}); !r.Ok() {
		t.Fatal(r.Err)
	}
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{s2, 80, 4}}); r.Err != EADDRINUSE {
		t.Fatalf("second listen: %v, want EADDRINUSE", r.Err)
	}
}

func TestUnknownSyscallIsENOSYS(t *testing.T) {
	k := New()
	p := newTestProc(k)
	if r := k.Do(p, Call{Nr: SysMVEEAware}); r.Err != ENOSYS {
		t.Fatalf("mvee_aware reached the kernel and got %v, want ENOSYS", r.Err)
	}
	if r := k.Do(p, Call{Nr: Sysno(999)}); r.Err != ENOSYS {
		t.Fatalf("bogus syscall: %v, want ENOSYS", r.Err)
	}
}

func TestDup(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fd := k.Do(p, openCall("/f", OCreat|ORdwr)).Val
	d := k.Do(p, Call{Nr: SysDup, Args: [6]uint64{fd}})
	if !d.Ok() || d.Val == fd {
		t.Fatalf("dup: %+v", d)
	}
	if r := k.Do(p, Call{Nr: SysDup, Args: [6]uint64{777}}); r.Err != EBADF {
		t.Fatalf("dup bad fd: %v", r.Err)
	}
}

func TestNextTidSequential(t *testing.T) {
	k := New()
	p := newTestProc(k)
	for want := 1; want <= 5; want++ {
		if tid := p.NextTid(); tid != want {
			t.Fatalf("NextTid = %d, want %d", tid, want)
		}
	}
}

func TestConcurrentFileAppendsDoNotCorrupt(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fd := k.Do(p, openCall("/log", OCreat|OWronly)).Val
	var wg sync.WaitGroup
	const writers = 8
	const per = 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k.Do(p, Call{Nr: SysPwrite, Args: [6]uint64{fd, uint64(i)}, Data: []byte("x")})
			}
		}()
	}
	wg.Wait()
	got, _ := k.ReadFile("/log")
	if len(got) != per {
		t.Fatalf("file length %d, want %d", len(got), per)
	}
}

func TestProcIsolation(t *testing.T) {
	k := New()
	p1 := newTestProc(k)
	p2 := newTestProc(k)
	fd1 := k.Do(p1, openCall("/shared", OCreat|ORdwr)).Val
	// p2 must not be able to use p1's descriptor.
	if r := k.Do(p2, Call{Nr: SysWrite, Args: [6]uint64{fd1}, Data: []byte("x")}); r.Err != EBADF {
		t.Fatalf("cross-proc fd use: %v, want EBADF", r.Err)
	}
	if p1.Pid == p2.Pid {
		t.Fatal("pids not unique")
	}
}
