package kernel

import (
	"bytes"
	"testing"
)

// mkFile creates /path with the given contents and returns a read-only fd
// over it.
func mkFile(t testing.TB, k *Kernel, p *Proc, path string, contents []byte) uint64 {
	t.Helper()
	w := k.Do(p, openCall(path, OCreat|OWronly|OTrunc))
	if !w.Ok() {
		t.Fatalf("open %s for write: %v", path, w.Err)
	}
	if r := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{w.Val}, Data: contents}); !r.Ok() || r.Val != uint64(len(contents)) {
		t.Fatalf("write %s: %+v", path, r)
	}
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{w.Val}})
	rd := k.Do(p, openCall(path, ORdonly))
	if !rd.Ok() {
		t.Fatalf("reopen %s: %v", path, rd.Err)
	}
	return rd.Val
}

func TestWritevGatherToPipe(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	if !pr.Ok() {
		t.Fatalf("pipe2: %v", pr.Err)
	}
	segs := [][]byte{[]byte("HTTP/1.1 200 OK\r\n\r\n"), []byte("hello, "), []byte("world")}
	iov := EncodeIovec(nil, segs...)
	want := bytes.Join(segs, nil)
	w := k.Do(p, Call{Nr: SysWritev, Args: [6]uint64{pr.Val2, uint64(len(segs))}, Data: iov})
	if !w.Ok() || w.Val != uint64(len(want)) {
		t.Fatalf("writev: %+v, want Val=%d (prefixes excluded from the count)", w, len(want))
	}
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{pr.Val, 256}})
	if !rd.Ok() || !bytes.Equal(rd.Data, want) {
		t.Fatalf("read back %q, want %q (err %v)", rd.Data, want, rd.Err)
	}
}

func TestWritevGatherToSeekableFile(t *testing.T) {
	k := New()
	p := newTestProc(k)
	fd := k.Do(p, openCall("/gather", OCreat|ORdwr))
	if !fd.Ok() {
		t.Fatalf("open: %v", fd.Err)
	}
	iov := EncodeIovec(nil, []byte("aaa"), []byte("bb"), []byte("c"))
	if w := k.Do(p, Call{Nr: SysWritev, Args: [6]uint64{fd.Val, 3}, Data: iov}); !w.Ok() || w.Val != 6 {
		t.Fatalf("writev: %+v", w)
	}
	// The gather-write moved the file offset by the payload size, exactly
	// like the equivalent plain write.
	if s := k.Do(p, Call{Nr: SysLseek, Args: [6]uint64{fd.Val, 0, SeekCur}}); !s.Ok() || s.Val != 6 {
		t.Fatalf("offset after writev: %+v, want 6", s)
	}
	k.Do(p, Call{Nr: SysLseek, Args: [6]uint64{fd.Val, 0, SeekSet}})
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{fd.Val, 64}})
	if string(rd.Data) != "aaabbc" {
		t.Fatalf("read back %q, want %q", rd.Data, "aaabbc")
	}
}

func TestWritevMalformedIovecIsEINVAL(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	good := EncodeIovec(nil, []byte("abc"), []byte("de"))
	for _, tc := range []struct {
		name string
		cnt  uint64
		data []byte
	}{
		// Declared count disagrees with the encoded prefixes: the extra
		// "length" word is read out of the payload, so the sum check fails.
		{"count-overstates", 3, good},
		{"count-understates", 1, good},
		// Payload shorter/longer than the prefixes promise.
		{"payload-truncated", 2, good[:len(good)-1]},
		{"payload-overhang", 2, append(append([]byte(nil), good...), 'x')},
		// Not even room for the prefixes.
		{"header-truncated", 2, good[:7]},
	} {
		r := k.Do(p, Call{Nr: SysWritev, Args: [6]uint64{pr.Val2, tc.cnt}, Data: tc.data})
		if r.Err != EINVAL {
			t.Errorf("%s: err = %v, want EINVAL", tc.name, r.Err)
		}
	}
	// The pipe saw none of the rejected bytes.
	if probe := k.Do(p, Call{Nr: SysWritev, Args: [6]uint64{pr.Val2, 2}, Data: good}); !probe.Ok() || probe.Val != 5 {
		t.Fatalf("valid writev after rejections: %+v", probe)
	}
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{pr.Val, 64}})
	if string(rd.Data) != "abcde" {
		t.Fatalf("pipe contents %q, want only the valid writev's payload", rd.Data)
	}
}

func TestSendfileExplicitOffsets(t *testing.T) {
	k := New()
	p := newTestProc(k)
	contents := []byte("0123456789abcdef")
	src := mkFile(t, k, p, "/page", contents)
	pr := k.Do(p, Call{Nr: SysPipe2})

	// Middle slice.
	if r := k.Do(p, Call{Nr: SysSendfile, Args: [6]uint64{pr.Val2, src, 4, 6}}); !r.Ok() || r.Val != 6 {
		t.Fatalf("sendfile(off=4,count=6): %+v", r)
	}
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{pr.Val, 64}})
	if string(rd.Data) != "456789" {
		t.Fatalf("pipe got %q, want %q", rd.Data, "456789")
	}
	// Count clamps at EOF; offset at/past EOF transfers zero bytes.
	if r := k.Do(p, Call{Nr: SysSendfile, Args: [6]uint64{pr.Val2, src, 12, 100}}); !r.Ok() || r.Val != 4 {
		t.Fatalf("sendfile past-EOF count: %+v, want Val=4 (clamped)", r)
	}
	if r := k.Do(p, Call{Nr: SysSendfile, Args: [6]uint64{pr.Val2, src, 99, 5}}); !r.Ok() || r.Val != 0 {
		t.Fatalf("sendfile at EOF: %+v, want Val=0", r)
	}
	// Explicit offsets never move the description offset: a read through
	// the same descriptor still starts at 0... except src is the in-fd;
	// verify via its own read cursor.
	if rd2 := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{src, 4}}); string(rd2.Data) != "0123" {
		t.Fatalf("description offset moved by explicit-offset sendfile: read %q", rd2.Data)
	}
}

func TestSendfileToSocket(t *testing.T) {
	k := New()
	p := newTestProc(k)
	contents := bytes.Repeat([]byte("page"), 256)
	src := mkFile(t, k, p, "/page", contents)
	sfd := k.Do(p, Call{Nr: SysSocket}).Val
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{sfd, 8070, 16}}); !r.Ok() {
		t.Fatalf("listen: %v", r.Err)
	}
	got := make(chan []byte, 1)
	go func() {
		cc, errno := k.Connect(8070)
		if errno != OK {
			t.Errorf("connect: %v", errno)
			got <- nil
			return
		}
		defer cc.Close()
		cc.Write([]byte("GET /"))
		buf := make([]byte, 4096)
		var all []byte
		for len(all) < len(contents) {
			n, err := cc.Read(buf)
			if err != nil || n == 0 {
				break
			}
			all = append(all, buf[:n]...)
		}
		got <- all
	}()
	acc := k.Do(p, Call{Nr: SysAccept, Args: [6]uint64{sfd}})
	if !acc.Ok() {
		t.Fatalf("accept: %v", acc.Err)
	}
	k.Do(p, Call{Nr: SysRecv, Args: [6]uint64{acc.Val, 64}})
	sent := uint64(0)
	for sent < uint64(len(contents)) {
		r := k.Do(p, Call{Nr: SysSendfile,
			Args: [6]uint64{acc.Val, src, sent, uint64(len(contents)) - sent}})
		if !r.Ok() || r.Val == 0 {
			t.Fatalf("sendfile at %d: %+v", sent, r)
		}
		sent += r.Val
	}
	if body := <-got; !bytes.Equal(body, contents) {
		t.Fatalf("client received %d bytes, want %d identical", len(body), len(contents))
	}
}

func TestSendfileArgumentErrors(t *testing.T) {
	k := New()
	p := newTestProc(k)
	src := mkFile(t, k, p, "/page", []byte("data"))
	pr := k.Do(p, Call{Nr: SysPipe2})
	fileFD := k.Do(p, openCall("/sink", OCreat|ORdwr)).Val
	wonly := k.Do(p, openCall("/page", OWronly)).Val

	for _, tc := range []struct {
		name string
		args [6]uint64
		want Errno
	}{
		// A regular file cannot be the OUT side: sendfile targets streams.
		{"out-is-file", [6]uint64{fileFD, src, 0, 4}, EINVAL},
		// A pipe cannot be the IN side: the source must be a regular file.
		{"in-is-pipe", [6]uint64{pr.Val2, pr.Val, 0, 4}, EINVAL},
		// A write-only in-fd cannot be read from.
		{"in-write-only", [6]uint64{pr.Val2, wonly, 0, 4}, EBADF},
		// Negative count (a u64 that does not fit an int).
		{"negative-count", [6]uint64{pr.Val2, src, 0, ^uint64(7)}, EINVAL},
		{"bad-out-fd", [6]uint64{99, src, 0, 4}, EBADF},
		{"bad-in-fd", [6]uint64{pr.Val2, 99, 0, 4}, EBADF},
	} {
		if r := k.Do(p, Call{Nr: SysSendfile, Args: tc.args}); r.Err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, r.Err, tc.want)
		}
	}
}

// TestSendfileSharedOffsetAcrossFork is the prefork-inheritance contract:
// fork shares open file DESCRIPTIONS, so two processes issuing
// current-offset sendfiles through inherited copies of one descriptor
// advance ONE shared cursor under the description lock — each transfer
// claims a disjoint range, exactly like Linux f_pos serialization.
func TestSendfileSharedOffsetAcrossFork(t *testing.T) {
	k := New()
	parent := newTestProc(k)
	contents := []byte("AAAABBBBCCCCDDDD")
	src := mkFile(t, k, parent, "/page", contents)
	pr := k.Do(parent, Call{Nr: SysPipe2})

	f := k.Do(parent, Call{Nr: SysFork})
	if !f.Ok() {
		t.Fatalf("fork: %v", f.Err)
	}
	child := parent.Child(int(f.Val))
	if child == nil {
		t.Fatal("child proc not found")
	}

	// Alternate current-offset transfers between the two processes; the
	// shared description offset must hand out consecutive 4-byte ranges.
	for i, pp := range []*Proc{parent, child, parent, child} {
		r := k.Do(pp, Call{Nr: SysSendfile,
			Args: [6]uint64{pr.Val2, src, SendfileCurOffset, 4}})
		if !r.Ok() || r.Val != 4 {
			t.Fatalf("transfer %d: %+v", i, r)
		}
	}
	rd := k.Do(parent, Call{Nr: SysRead, Args: [6]uint64{pr.Val, 64}})
	if !bytes.Equal(rd.Data, contents) {
		t.Fatalf("interleaved transfers produced %q, want %q (shared offset not advancing)", rd.Data, contents)
	}
	// The cursor sits at EOF now: one more current-offset transfer moves
	// nothing.
	if r := k.Do(parent, Call{Nr: SysSendfile,
		Args: [6]uint64{pr.Val2, src, SendfileCurOffset, 4}}); !r.Ok() || r.Val != 0 {
		t.Fatalf("post-EOF transfer: %+v, want Val=0", r)
	}
}
