package kernel

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// startEchoServer runs a raw-kernel echo server (no monitor): accept, read
// one message into a reusable scratch buffer (Call.Buf, so the recv result
// aliases it instead of being allocated), write it back, close. It returns a
// stop function.
func startEchoServer(t *testing.T, k *Kernel, port uint16) func() {
	t.Helper()
	p := k.NewProc(0x1000_0000, 0x7000_0000)
	sfd := k.Do(p, Call{Nr: SysSocket})
	if !sfd.Ok() {
		t.Fatalf("socket: %v", sfd.Err)
	}
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{sfd.Val, uint64(port), 64}}); !r.Ok() {
		t.Fatalf("listen: %v", r.Err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]byte, 4096)
		for {
			c := k.Do(p, Call{Nr: SysAccept, Args: [6]uint64{sfd.Val}})
			if !c.Ok() {
				return // listener closed
			}
			msg := k.Do(p, Call{Nr: SysRecv, Args: [6]uint64{c.Val, 4096}, Buf: scratch})
			if msg.Ok() && len(msg.Data) > 0 {
				k.Do(p, Call{Nr: SysSend, Args: [6]uint64{c.Val}, Data: msg.Data})
			}
			k.Do(p, Call{Nr: SysClose, Args: [6]uint64{c.Val}})
		}
	}()
	return func() {
		k.CloseListener(port)
		<-done
	}
}

// Connection churn over the pooled pipes/endpoints: every connection must
// see exactly its own bytes. This is the safety property recycling could
// break — a pipe or socket endpoint handed to a new connection while the
// old one still holds a reference would bleed payloads across connections.
func TestConnectionChurnNoCrossTalk(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 80)
	defer stop()
	for i := 0; i < 300; i++ {
		cc, errno := k.Connect(80)
		if errno != OK {
			t.Fatalf("connect %d: %v", i, errno)
		}
		want := fmt.Sprintf("payload-%d", i)
		if _, err := cc.Write([]byte(want)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		buf := make([]byte, 64)
		n, err := cc.Read(buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(buf[:n]) != want {
			t.Fatalf("connection %d echoed %q, want %q (cross-connection bleed)", i, buf[:n], want)
		}
		cc.Close()
		cc.Close() // idempotent: the watchdog/defer double-close pattern
	}
}

// The same property under concurrency, for the race detector: pooled
// objects must never be visible to two connections at once.
func TestConnectionChurnConcurrent(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 81)
	defer stop()
	const clients, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				cc, errno := k.Connect(81)
				if errno != OK {
					errs <- fmt.Errorf("client %d connect %d: %v", c, i, errno)
					return
				}
				want := fmt.Sprintf("c%d-r%d", c, i)
				cc.Write([]byte(want))
				n, err := cc.Read(buf)
				if err != nil || string(buf[:n]) != want {
					cc.Close()
					errs <- fmt.Errorf("client %d round %d: got %q err %v, want %q", c, i, buf[:n], err, want)
					return
				}
				cc.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// pipe2 descriptors recycle through the same pool; closing both ends must
// return the pipe without disturbing a later pipe's data.
func TestPipe2Recycling(t *testing.T) {
	k := New()
	p := k.NewProc(0x1000_0000, 0x7000_0000)
	for i := 0; i < 50; i++ {
		r := k.Do(p, Call{Nr: SysPipe2})
		if !r.Ok() {
			t.Fatalf("pipe2 %d: %v", i, r.Err)
		}
		rfd, wfd := r.Val, r.Val2
		msg := fmt.Sprintf("pipe-%d", i)
		if w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte(msg)}); !w.Ok() {
			t.Fatalf("write %d: %v", i, w.Err)
		}
		rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
		if !rd.Ok() || string(rd.Data) != msg {
			t.Fatalf("pipe %d read %q (err %v), want %q", i, rd.Data, rd.Err, msg)
		}
		k.Do(p, Call{Nr: SysClose, Args: [6]uint64{rfd}})
		k.Do(p, Call{Nr: SysClose, Args: [6]uint64{wfd}})
	}
	if n := p.OpenFDs(); n != 0 {
		t.Fatalf("%d descriptors left open, want 0 (none leaked)", n)
	}
}

// A ClientConn operation arriving after its pipes were recycled into a
// new connection must get EBADF, not the new connection's bytes — the
// gateway-watchdog race the generation stamps exist for.
func TestStaleClientConnHandleGetsEBADF(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 82)
	defer stop()
	do := func(payload string) ClientConn {
		cc, errno := k.Connect(82)
		if errno != OK {
			t.Fatalf("connect: %v", errno)
		}
		cc.Write([]byte(payload))
		buf := make([]byte, 64)
		if n, err := cc.Read(buf); err != nil || string(buf[:n]) != payload {
			t.Fatalf("echo: got %q err %v", buf[:n], err)
		}
		return cc
	}
	stale := do("first")
	stale.Close()
	// Churn fresh connections so the stale conn's pipes recycle into new
	// connections (per-kernel pool; if the pool happened to drop them,
	// the dead pipe's EOF/EBADF is equally acceptable below).
	for i := 0; i < 8; i++ {
		do(fmt.Sprintf("churn-%d", i)).Close()
	}
	buf := make([]byte, 64)
	// The one outcome that must never happen is the stale handle touching
	// a successor connection: Read must yield no bytes (EBADF on a
	// recycled pipe, EOF on a merely dead one), Write must not land.
	if n, err := stale.Read(buf); n != 0 || (err != nil && err != EBADF) {
		t.Fatalf("stale Read returned (%d, %v) with %q, want no data", n, err, buf[:n])
	}
	if n, err := stale.Write([]byte("intruder")); n != 0 || (err != EBADF && err != EPIPE) {
		t.Fatalf("stale Write returned (%d, %v), want (0, EBADF|EPIPE)", n, err)
	}
	stale.Close() // late double-close (the watchdog pattern): must be a no-op
	// The pool still serves clean connections afterwards.
	do("after").Close()
}

// dup(2)'d sockets share one pooled endpoint; closing one descriptor must
// neither tear down the connection nor recycle the object while the other
// descriptor still references it — only the last close finalizes (struct
// file f_count semantics).
func TestDupSocketCloseOncePooled(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 83)
	defer stop()
	p := k.NewProc(0x3000_0000, 0x7200_0000)
	sfd := k.Do(p, Call{Nr: SysSocket})
	if r := k.Do(p, Call{Nr: SysConnect, Args: [6]uint64{sfd.Val, 83}}); !r.Ok() {
		t.Fatalf("connect: %v", r.Err)
	}
	dup := k.Do(p, Call{Nr: SysDup, Args: [6]uint64{sfd.Val}})
	if !dup.Ok() {
		t.Fatalf("dup: %v", dup.Err)
	}
	// Close the ORIGINAL descriptor; the dup must keep the connection
	// alive and usable.
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{sfd.Val}}); !r.Ok() {
		t.Fatalf("close original: %v", r.Err)
	}
	if w := k.Do(p, Call{Nr: SysSend, Args: [6]uint64{dup.Val}, Data: []byte("via-dup")}); !w.Ok() {
		t.Fatalf("send via dup after closing original: %v", w.Err)
	}
	rd := k.Do(p, Call{Nr: SysRecv, Args: [6]uint64{dup.Val, 64}})
	if !rd.Ok() || string(rd.Data) != "via-dup" {
		t.Fatalf("recv via dup: %q (err %v)", rd.Data, rd.Err)
	}
	// Last close finalizes; afterwards churn must still be clean (the
	// endpoint recycles exactly once — a premature pool-put here used to
	// let this close tear down a successor connection).
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{dup.Val}}); !r.Ok() {
		t.Fatalf("close dup: %v", r.Err)
	}
	for i := 0; i < 4; i++ {
		cc, errno := k.Connect(83)
		if errno != OK {
			t.Fatalf("post-dup connect %d: %v", i, errno)
		}
		cc.Write([]byte("after"))
		buf := make([]byte, 16)
		if n, err := cc.Read(buf); err != nil || string(buf[:n]) != "after" {
			t.Fatalf("post-dup echo %d: %q err %v", i, buf[:n], err)
		}
		cc.Close()
	}
}

// connect(2) with a bad descriptor must fail WITHOUT leaving a ghost
// connection in the listener backlog: the ghost used to wedge the
// server's accept loop in a recv nobody would ever satisfy, pinning the
// pipes forever.
func TestConnectBadFDLeavesNoGhostConnection(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 84)
	p := k.NewProc(0x3000_0000, 0x7200_0000)
	if r := k.Do(p, Call{Nr: SysConnect, Args: [6]uint64{9999, 84}}); r.Err != EBADF {
		t.Fatalf("connect with bad fd: %v, want EBADF", r.Err)
	}
	// A real request must be served (a ghost ahead of it would absorb the
	// accept), and the server must wind down cleanly (a ghost would leave
	// it stuck in recv, hanging stop()).
	cc, errno := k.Connect(84)
	if errno != OK {
		t.Fatalf("connect: %v", errno)
	}
	cc.Write([]byte("real"))
	buf := make([]byte, 16)
	if n, err := cc.Read(buf); err != nil || string(buf[:n]) != "real" {
		t.Fatalf("echo after bad-fd connect: %q err %v", buf[:n], err)
	}
	cc.Close()
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server wedged on a ghost connection from the failed connect")
	}
}
