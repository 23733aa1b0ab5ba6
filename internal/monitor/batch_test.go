package monitor

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
)

// The vectored/zero-copy syscalls carry their interesting structure in
// places a naive comparator could miss: writev's segment boundaries ride
// the iovec prefixes inside Call.Data, and sendfile's transfer window is
// pure argument tuple (the page bytes never reach the monitor). These
// tests pin that all of it participates in divergence detection.

func TestWritevIovcntDivergence(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	iov := kernel.EncodeIovec(nil, []byte("ab"), []byte("c"))
	var div any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { div = recover() }()
		// Same payload bytes, but the slave claims three segments.
		m.Invoke(1, 0, kernel.Call{Nr: kernel.SysWritev, Args: [6]uint64{3, 3}, Data: iov})
	}()
	func() {
		defer func() { _ = recover() }()
		m.Invoke(0, 0, kernel.Call{Nr: kernel.SysWritev, Args: [6]uint64{3, 2}, Data: iov})
	}()
	wg.Wait()
	if div != ErrKilled {
		t.Fatalf("slave recovered %v, want ErrKilled", div)
	}
	d := m.Divergence()
	if d == nil || !strings.Contains(d.Reason, "argument 1") {
		t.Fatalf("divergence = %v, want iovcnt (argument 1) mismatch", d)
	}
}

func TestWritevSegmentBoundaryDivergence(t *testing.T) {
	// Identical flat payload ("abc"), identical iovcnt — but the variants
	// disagree on where one segment ends and the next begins. The length
	// prefixes are part of the wire payload, so this must diverge.
	m, _ := newTestMonitor(t, 2)
	master := kernel.EncodeIovec(nil, []byte("ab"), []byte("c"))
	slave := kernel.EncodeIovec(nil, []byte("a"), []byte("bc"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = recover() }()
		m.Invoke(1, 0, kernel.Call{Nr: kernel.SysWritev, Args: [6]uint64{3, 2}, Data: slave})
	}()
	func() {
		defer func() { _ = recover() }()
		m.Invoke(0, 0, kernel.Call{Nr: kernel.SysWritev, Args: [6]uint64{3, 2}, Data: master})
	}()
	wg.Wait()
	d := m.Divergence()
	if d == nil || d.Reason != "payload mismatch" {
		t.Fatalf("divergence = %v, want payload mismatch on iovec structure", d)
	}
}

func TestSendfileOffsetDivergenceInBatch(t *testing.T) {
	// The offset mismatch is detected on the BATCHED consumption path too:
	// the slave compares each record positionally, in its ring slot, so a
	// divergent second call kills the session even though the master
	// published the whole batch in one ring operation.
	m, _ := newTestMonitor(t, 2)
	var div any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { div = recover() }()
		calls := []kernel.Call{
			{Nr: kernel.SysGetpid},
			{Nr: kernel.SysSendfile, Args: [6]uint64{4, 3, 16, 8}},
		}
		m.InvokeBatchOn(1, 0, m.procs[1], calls, make([]kernel.Ret, len(calls)))
	}()
	func() {
		defer func() { _ = recover() }()
		calls := []kernel.Call{
			{Nr: kernel.SysGetpid},
			{Nr: kernel.SysSendfile, Args: [6]uint64{4, 3, 0, 8}},
		}
		m.InvokeBatchOn(0, 0, m.procs[0], calls, make([]kernel.Ret, len(calls)))
	}()
	wg.Wait()
	if div != ErrKilled {
		t.Fatalf("slave recovered %v, want ErrKilled", div)
	}
	d := m.Divergence()
	if d == nil || !strings.Contains(d.Reason, "argument 2") {
		t.Fatalf("divergence = %v, want offset (argument 2) mismatch", d)
	}
	if d.Variant != 1 || d.Tid != 0 {
		t.Fatalf("divergence location = variant %d tid %d", d.Variant, d.Tid)
	}
}

// captureTrace runs the canonical ready-connection sequence — opens, then
// a run of recv-shaped reads, a pid probe, and a response write — on a
// fresh 2-variant capturing monitor, issuing the run either as one
// InvokeBatchOn multi-record or as per-call Invokes, and returns the
// captured tid-0 record tape.
func captureTrace(t *testing.T, batched bool) []Record {
	t.Helper()
	k := kernel.New()
	procs := []*kernel.Proc{
		k.NewProc(0x1000_0000, 0x7000_0000),
		k.NewProc(0x2000_0000, 0xe000_0000),
	}
	m := New(k, procs, Config{MaxThreads: 8, RingCap: 32, Capture: true})
	k.WriteFile("/in", bytes.Repeat([]byte("req!"), 8))
	// The pipe calls pin the record placement both callers share: a payload
	// past InlinePayload (spilled, not inline) and two stream recvs whose
	// results alias their Bufs (one Buf per recv: a batch defers the
	// copy-out to its end, so its calls cannot share one).
	body := []byte(strings.Repeat("spill-me", 2) + strings.Repeat("SPILL-ME", 10))

	drive := func(v int) {
		fd := m.Invoke(v, 0, openCall("/in", kernel.ORdonly))
		out := m.Invoke(v, 0, openCall("/out", kernel.OCreat|kernel.OWronly))
		pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
		buf, bufA, bufB := make([]byte, 16), make([]byte, 16), make([]byte, 16)
		calls := []kernel.Call{
			{Nr: kernel.SysRead, Args: [6]uint64{fd.Val, 16}, Buf: buf},
			{Nr: kernel.SysGetpid},
			{Nr: kernel.SysRead, Args: [6]uint64{fd.Val, 16}, Buf: buf},
			{Nr: kernel.SysWrite, Args: [6]uint64{out.Val}, Data: []byte("HTTP/1.1 200 OK")},
			{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}, Data: body},
			{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 16}, Buf: bufA},
			{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 16}, Buf: bufB},
		}
		rets := make([]kernel.Ret, len(calls))
		if batched {
			m.InvokeBatchOn(v, 0, m.procs[v], calls, rets)
		} else {
			for i := range calls {
				rets[i] = m.Invoke(v, 0, calls[i])
			}
		}
		for i, r := range rets {
			if !r.Ok() {
				t.Errorf("batched=%v variant %d call %d failed: %+v", batched, v, i, r)
			}
		}
		// The guest reuses its receive buffers once the calls return.
		clear(bufA)
		clear(bufB)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drive(1)
	}()
	drive(0)
	wg.Wait()
	if d := m.Divergence(); d != nil {
		t.Fatalf("batched=%v diverged: %+v", batched, d)
	}
	tape := m.StopCapture()
	if len(tape) == 0 || len(tape[0]) < 3 {
		t.Fatalf("batched=%v captured %d streams", batched, len(tape))
	}
	// Each record must hold its own stable copy of the bytes it carried: a
	// record still aliasing the guest's buffer would show the zeroes the
	// guest wrote over it.
	tail := tape[0][len(tape[0])-3:]
	if got := tail[0].Payload(); !bytes.Equal(got, body) {
		t.Fatalf("batched=%v spilled write payload = %q, want %q", batched, got, body)
	}
	for i, want := range [][]byte{body[:16], body[16:32]} {
		if got := tail[1+i].Ret.Data; !bytes.Equal(got, want) {
			t.Fatalf("batched=%v pipe recv %d recorded %q, want %q", batched, i, got, want)
		}
	}
	return tape[0]
}

// TestBatchedReplicationMatchesSequential is the batching soundness
// property: batching changes record TRANSPORT (one reservation, one wake
// per run), not the trace. The same call sequence issued through
// InvokeBatchOn and through per-call Invoke must capture byte-identical
// record tapes — same ordering-clock stamps, same payloads, same results.
func TestBatchedReplicationMatchesSequential(t *testing.T) {
	seq := captureTrace(t, false)
	bat := captureTrace(t, true)
	if len(seq) != len(bat) {
		t.Fatalf("record counts differ: sequential %d, batched %d", len(seq), len(bat))
	}
	for i := range seq {
		se, err1 := seq[i].GobEncode()
		be, err2 := bat[i].GobEncode()
		if err1 != nil || err2 != nil {
			t.Fatalf("record %d encode: %v / %v", i, err1, err2)
		}
		if !bytes.Equal(se, be) {
			t.Fatalf("record %d differs:\n sequential %+v\n batched    %+v", i, seq[i], bat[i])
		}
	}
}

// TestBatchFallsBackOnIneligibleCall: a run containing a per-variant call
// (brk moves variant-local memory) must take the transparent per-call
// path — every slot still gets its result and nothing diverges.
func TestBatchFallsBackOnIneligibleCall(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	drive := func(v int) []kernel.Ret {
		calls := []kernel.Call{
			{Nr: kernel.SysGetpid},
			{Nr: kernel.SysBrk, Args: [6]uint64{0}},
			{Nr: kernel.SysGetpid},
		}
		rets := make([]kernel.Ret, len(calls))
		m.InvokeBatchOn(v, 0, m.procs[v], calls, rets)
		return rets
	}
	var slaveRets []kernel.Ret
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slaveRets = drive(1)
	}()
	masterRets := drive(0)
	wg.Wait()
	if d := m.Divergence(); d != nil {
		t.Fatalf("fallback batch diverged: %+v", d)
	}
	for i, rets := range [][]kernel.Ret{masterRets, slaveRets} {
		for j, r := range rets {
			if !r.Ok() {
				t.Errorf("variant %d call %d: %+v, want success via fallback", i, j, r)
			}
		}
		// brk with a 0 argument reports the current break — nonzero proves
		// the per-variant call really executed in BOTH variants.
		if rets[1].Val == 0 {
			t.Errorf("variant %d brk returned 0; per-variant call skipped", i)
		}
	}
}

// TestBatchSlaveCopiesIntoCallBuf pins the zero-alloc contract on BOTH
// sides of a batched stream read: the master's recv lands directly in the
// caller-provided Buf (the kernel's recv-into-Buf path) and the slave copies
// the replicated record's bytes into ITS caller's Buf — in each case
// Ret.Data aliases the buf's prefix, so a serving loop's scratch buffers
// are recycled rather than re-allocated per request.
func TestBatchSlaveCopiesIntoCallBuf(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	drive := func(v int) (kernel.Ret, []byte) {
		// Pipes are stream objects (recv fills Buf), so a Buf-carrying read takes
		// the allocation-free receive path exactly like a socket recv.
		pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
		m.Invoke(v, 0, kernel.Call{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}, Data: []byte("payload")})
		buf := make([]byte, 64)
		calls := []kernel.Call{
			{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 64}, Buf: buf},
			{Nr: kernel.SysGetpid},
		}
		rets := make([]kernel.Ret, len(calls))
		m.InvokeBatchOn(v, 0, m.procs[v], calls, rets)
		return rets[0], buf
	}
	var slaveRet kernel.Ret
	var slaveBuf []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slaveRet, slaveBuf = drive(1)
	}()
	ret, buf := drive(0)
	wg.Wait()

	if d := m.Divergence(); d != nil {
		t.Fatalf("diverged: %+v", d)
	}
	if string(ret.Data) != "payload" || &ret.Data[0] != &buf[0] {
		t.Fatalf("master batched read = %q (aliases buf: %v), want %q in caller buf",
			ret.Data, len(ret.Data) > 0 && &ret.Data[0] == &buf[0], "payload")
	}
	if string(slaveRet.Data) != "payload" || &slaveRet.Data[0] != &slaveBuf[0] {
		t.Fatalf("slave batched read = %q, want %q copied into the caller's buf", slaveRet.Data, "payload")
	}
}
