// Package webserver models the paper's realistic use case (§5.5): nginx
// 1.8 with thread pools. The server runs under the MVEE, accepts loopback
// connections from a load generator, and serves a static page. Its
// inter-thread synchronization mixes pthread-style primitives with the
// custom spinlock-style primitives nginx builds from inline assembly —
// which is exactly what made instrumentation necessary in the paper: an
// uninstrumented custom primitive causes divergence once traffic flows.
//
// The package also reproduces the security experiment: a request to a
// vulnerable endpoint (modelling the re-introduced CVE-2013-2028
// exploitation) corrupts a "function pointer" with an attacker-supplied
// code address. Because variants have disjoint code layouts, the corrupted
// pointer is only meaningful in one variant; the divergent response write
// is detected by the monitor before any output leaves the system.
//
// The three serving modes (thread pool, evented, prefork) differ only in
// their concurrency shape: each listens, accepts, receives and responds
// through one shared copy of that step. The serving path mirrors nginx's
// I/O strategy: the static page is materialized as a FILE and served with
// zero-copy sendfile; /count gathers its two segments with one writev; and
// every serving thread recvs into a reusable buffer and builds /count in a
// reusable scratch buffer, so steady-state serving allocates nothing. The
// evented mode receives all of a poll wakeup's ready
// connections as one replicated multi-record (core.Thread.SyscallBatch),
// so a wakeup with K ready clients costs one cross-core handoff, not K.
package webserver

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/synclib"
)

// Config shapes the server.
type Config struct {
	Port        uint16
	PoolThreads int // worker threads in the thread pool (nginx used 32)
	// InstrumentCustomSync controls whether the nginx-style custom
	// spinlock is routed through the sync agent. Turning it off
	// reproduces the paper's observation: the server starts fine but
	// diverges once traffic flows.
	InstrumentCustomSync bool
	// Vulnerable enables the CVE-2013-2028-style endpoint.
	Vulnerable bool
	// PageSize is the static page size (the paper serves 4 KiB).
	PageSize int
	// Evented selects the event-driven serving mode: one thread
	// multiplexing every connection through SysPoll (nginx's native event
	// loop) instead of the thread-per-connection pool. All request
	// endpoints behave identically; only the concurrency model changes.
	// Under the MVEE the poll results are replicated from the master, so
	// every variant's event loop takes the same branches — and a variant
	// polling a different fd set is divergence.
	Evented bool
	// Prefork selects the multi-PROCESS serving mode (nginx/Apache
	// prefork): the parent binds the listener, forks Workers child
	// processes that inherit (and accept on) the shared listening
	// descriptor, then sits in a waitpid loop reaping dead workers and
	// re-forking replacements. Worker death — a /quit request, a kill —
	// is an ordinary, survivable event; shutdown (listener closed) makes
	// every worker exit cleanly and the parent drain to ECHILD.
	Prefork bool
	// Workers is the prefork worker-process count (nginx worker_processes).
	Workers int
	// WorkerThreads is the number of accept-loop threads per prefork
	// worker process (1 = the classic single-threaded worker). Forked
	// children are full processes, so each worker grows its own thread
	// pool; connection→thread assignment stays deterministic because it
	// rides the replicated accept stream.
	WorkerThreads int
}

func (c *Config) fill() {
	if c.Port == 0 {
		c.Port = 8080
	}
	if c.PoolThreads <= 0 {
		c.PoolThreads = 8
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.WorkerThreads <= 0 {
		c.WorkerThreads = 1
	}
}

// recvBufSize is the per-connection request scratch buffer: requests are
// one short line, so 4 KiB covers them with the same headroom nginx's
// default client_header_buffer uses.
const recvBufSize = 4096

// responseHeader prefixes every static-page response.
const responseHeader = "HTTP/1.1 200 OK\r\n\r\n"

// uninstrumentedSpinLock is the nginx custom primitive WITHOUT agent
// instrumentation: it spins on a plain Go atomic that the agents never see.
// Using it under the MVEE produces scheduling-dependent request handling
// and therefore benign divergence — the §5.5 negative result.
type uninstrumentedSpinLock struct {
	state chan struct{}
}

func newUninstrumentedSpinLock() *uninstrumentedSpinLock {
	l := &uninstrumentedSpinLock{state: make(chan struct{}, 1)}
	l.state <- struct{}{}
	return l
}

func (l *uninstrumentedSpinLock) Lock(*core.Thread)   { <-l.state }
func (l *uninstrumentedSpinLock) Unlock(*core.Thread) { l.state <- struct{}{} }

// Program builds the server program for the MVEE.
func Program(cfg Config) core.Program {
	cfg.fill()
	name := "nginx-sim"
	switch {
	case cfg.Evented:
		name = "nginx-sim-evented"
	case cfg.Prefork:
		name = "nginx-sim-prefork"
	}
	return core.Program{Name: name, Main: func(t *core.Thread) {
		switch {
		case cfg.Evented:
			runEventedServer(t, cfg)
		case cfg.Prefork:
			runPreforkServer(t, cfg)
		default:
			runServer(t, cfg)
		}
	}}
}

// pageSrv is the serving context every mode shares: the prebuilt response
// and the response FILE the zero-copy path serves it from. Built once per
// process, before traffic flows.
type pageSrv struct {
	cfg Config
	// handlerPtr is the "function pointer" the vulnerability overwrites:
	// it holds the variant-local code address of the page handler.
	// Diversity (DCL) places it differently in every variant.
	handlerPtr uint64
	response   []byte // header + page: the static-page response
	pageFD     uint64 // read-only fd over response; 0 = unavailable
}

// newPageSrv builds the serving context. Every syscall it makes is
// replicated and sits before the accept loop in program order, so all
// variants agree on the resulting descriptor.
func newPageSrv(t *core.Thread, cfg Config) *pageSrv {
	response := []byte(responseHeader + strings.Repeat("x", cfg.PageSize))
	srv := &pageSrv{cfg: cfg, handlerPtr: t.CodeAddr(64), response: response}
	srv.pageFD = setupPageFile(t, cfg.Port, response)
	return srv
}

// setupPageFile materializes the response as a regular file and reopens it
// read-only, giving respond a source descriptor for zero-copy sendfile —
// the nginx `sendfile on` configuration. Returns 0 (never a valid
// descriptor here) when any step fails; respond then sends the in-memory
// response and the server keeps serving.
func setupPageFile(t *core.Thread, port uint16, response []byte) uint64 {
	name := []byte(fmt.Sprintf("/srv/response-%d", port))
	w := t.Syscall(kernel.SysOpen,
		[6]uint64{kernel.OCreat | kernel.OWronly | kernel.OTrunc}, name)
	if !w.Ok() {
		return 0
	}
	wr := t.Syscall(kernel.SysWrite, [6]uint64{w.Val}, response)
	t.Syscall(kernel.SysClose, [6]uint64{w.Val}, nil)
	if !wr.Ok() || wr.Val != uint64(len(response)) {
		return 0
	}
	r := t.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, name)
	if !r.Ok() {
		return 0
	}
	return r.Val
}

// listen opens a listener on port: socket, bind, listen. A takeover listen
// atomically displaces the port's current listener and closes it (the
// prefork hot restart). ok is false when the listen failed.
func listen(t *core.Thread, port uint16, takeover bool) (fd uint64, ok bool) {
	fd = t.Syscall(kernel.SysSocket, [6]uint64{}, nil).Val
	t.Syscall(kernel.SysBind, [6]uint64{fd, uint64(port)}, nil)
	args := [6]uint64{fd, uint64(port), 128}
	if takeover {
		args[3] = 1
	}
	return fd, t.Syscall(kernel.SysListen, args, nil).Ok()
}

// accept takes the next connection off listener sfd, retrying after a
// signal interrupted the wait (its handler has run). ok is false once the
// listener is gone: shutdown, or a hot restart's takeover.
func accept(t *core.Thread, sfd uint64) (fd uint64, ok bool) {
	for {
		r := t.Syscall(kernel.SysAccept, [6]uint64{sfd}, nil)
		if r.Err != kernel.EINTR {
			return r.Val, r.Ok()
		}
	}
}

// receive reads one request line from connection fd into the thread's
// scratch buffer, retrying after a signal interrupted the wait. It returns
// nil when the peer is done with the connection.
func receive(t *core.Thread, fd uint64, buf []byte) []byte {
	for {
		r := t.SyscallInto(kernel.SysRecv, [6]uint64{fd, recvBufSize}, nil, buf)
		if r.Err != kernel.EINTR {
			return requestLine(r)
		}
	}
}

// requestLine is a receive's request line, or nil at EOF or on an error.
// The line aliases the receive buffer: it is consumed before the next
// receive into that buffer.
func requestLine(r kernel.Ret) []byte {
	if !r.Ok() || r.Val == 0 {
		return nil
	}
	return r.Data
}

// runServer is the thread-pool serving mode: the initial thread accepts and
// queues connections; cfg.PoolThreads workers each take one, serve its one
// request and close it.
func runServer(t *core.Thread, cfg Config) {
	srv := newPageSrv(t, cfg)

	// Shared request counter protected by nginx's *custom* primitive.
	var reqCount uint32
	var customLock interface {
		Lock(*core.Thread)
		Unlock(*core.Thread)
	} = newUninstrumentedSpinLock()
	if cfg.InstrumentCustomSync {
		customLock = synclib.NewSpinLock(t)
	}
	bump := func(tt *core.Thread) uint32 {
		customLock.Lock(tt)
		reqCount++
		n := reqCount
		customLock.Unlock(tt)
		return n
	}

	// Thread pool fed through an instrumented (pthread-style) queue.
	qmu := synclib.NewMutex(t)
	qcond := synclib.NewCond(t)
	var queue []uint64 // accepted connections
	closed := false

	sfd, ok := listen(t, cfg.Port, false)
	if !ok {
		return
	}

	workers := make([]*core.ThreadHandle, cfg.PoolThreads)
	for w := 0; w < cfg.PoolThreads; w++ {
		workers[w] = t.Spawn(func(tt *core.Thread) {
			// One request buffer for this worker's lifetime: every recv
			// lands in it (core.Thread.SyscallInto), so the serving path
			// stops paying an exact-sized allocation per request. scratch
			// is where respond builds a /count response.
			buf := make([]byte, recvBufSize)
			var scratch []byte
			for {
				qmu.Lock(tt)
				for len(queue) == 0 && !closed {
					qcond.Wait(tt, qmu)
				}
				if len(queue) == 0 && closed {
					qmu.Unlock(tt)
					return
				}
				// Shift rather than reslice, so the accept loop's append
				// reuses the array instead of growing a fresh one.
				fd := queue[0]
				queue = append(queue[:0], queue[1:]...)
				qmu.Unlock(tt)
				if line := receive(tt, fd, buf); line != nil {
					// nginx touches its shared counters at several points
					// while handling one request; model that with repeated
					// bumps. Under the uninstrumented custom lock, the
					// interleaving of these bumps across worker threads is
					// scheduler-dependent and differs between variants.
					n := bump(tt)
					for i := 0; i < 8; i++ {
						tt.Yield()
						n = bump(tt)
					}
					scratch = respond(tt, srv, fd, line, n, scratch)
				}
				tt.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
			}
		})
	}

	// Accept loop: runs until the listener is closed by the client side.
	for {
		fd, ok := accept(t, sfd)
		if !ok {
			break
		}
		qmu.Lock(t)
		queue = append(queue, fd)
		qcond.Signal(t)
		qmu.Unlock(t)
	}
	qmu.Lock(t)
	closed = true
	qcond.Broadcast(t)
	qmu.Unlock(t)
	for _, w := range workers {
		w.Join()
	}
}

// sendAll writes the whole payload, resuming after EINTR and after the
// POSIX short counts an interrupted pipe write can return — without the
// loop, a signal landing while the send is parked on a full buffer would
// silently truncate the response (the callers never inspect Ret.Val).
func sendAll(t *core.Thread, fd uint64, p []byte) {
	for len(p) > 0 {
		r := t.Syscall(kernel.SysSend, [6]uint64{fd}, p)
		if r.Err == kernel.EINTR {
			continue
		}
		if !r.Ok() || r.Val == 0 {
			return // broken connection; nothing more to send
		}
		p = p[r.Val:]
	}
}

// sendVec issues ONE vectored write of the pre-encoded iovec; flat is the
// same bytes in linear form, used to resume the rare short count (a signal
// landing while the send was parked) with plain sends. Reports whether the
// vectored call was accepted at all — EINVAL means writev is unavailable
// for this destination and the caller falls back wholesale.
func sendVec(t *core.Thread, fd uint64, iov []byte, iovcnt uint64, flat []byte) bool {
	for {
		r := t.Syscall(kernel.SysWritev, [6]uint64{fd, iovcnt}, iov)
		if r.Err == kernel.EINTR {
			continue
		}
		if r.Err == kernel.EINVAL {
			return false
		}
		if !r.Ok() || r.Val == 0 {
			return true // broken connection; nothing more to send
		}
		if int(r.Val) < len(flat) {
			sendAll(t, fd, flat[r.Val:])
		}
		return true
	}
}

// sendFile streams total bytes of the response file to the socket with
// zero-copy sendfile, resuming short transfers at EXPLICIT offsets — never
// the shared file offset, because prefork workers inherit ONE open
// description of the page file across fork and must not serialize on its
// cursor. Reports false when sendfile is unavailable for this descriptor
// pair (EINVAL with no progress) so the caller can fall back; broken
// connections report true (there is nothing left to send).
func sendFile(t *core.Thread, fd, src uint64, total int) bool {
	sent := uint64(0)
	for sent < uint64(total) {
		r := t.Syscall(kernel.SysSendfile,
			[6]uint64{fd, src, sent, uint64(total) - sent}, nil)
		if r.Err == kernel.EINTR {
			continue
		}
		if r.Err == kernel.EINVAL && sent == 0 {
			return false
		}
		if !r.Ok() || r.Val == 0 {
			return true // broken connection
		}
		sent += r.Val
	}
	return true
}

// respond dispatches one request line and sends the response; every
// serving mode answers through it. The static page is zero-copy: one
// sendfile from the response file straight to the socket. /count gathers
// its two pieces — the static label and the formatted counter — with one
// writev. Either falls back to plain sends if its syscall is unavailable.
// scratch is the calling thread's reusable buffer: /count is built in it,
// and respond returns it (grown if it had to be) for the thread's next
// request, so a steady-state response allocates nothing.
func respond(t *core.Thread, srv *pageSrv, fd uint64, line []byte, count uint32, scratch []byte) []byte {
	switch {
	case srv.cfg.Vulnerable && bytes.HasPrefix(line, []byte("POST /upload")):
		// CVE-2013-2028 model: a chunked-transfer stack overflow lets
		// the attacker overwrite a return address / function pointer
		// with a gadget address they computed for ONE concrete layout.
		// We model the overwrite by replacing handlerPtr with the
		// attacker-supplied value and "calling" it: the response leaks
		// whether the gadget matched this variant's layout.
		var gadget uint64
		fmt.Sscanf(string(line[len("POST /upload "):]), "%x", &gadget)
		hijacked := gadget // overwritten pointer
		// The "indirect call": executing the gadget succeeds only in
		// the variant whose code layout the attacker targeted. The
		// response encodes the outcome, so variants answer differently
		// — which the monitor catches at the send.
		var body string
		if hijacked == srv.handlerPtr {
			body = fmt.Sprintf("PWNED leaked-code-ptr=%#x", srv.handlerPtr)
		} else {
			body = "500 internal error"
		}
		t.Syscall(kernel.SysSend, [6]uint64{fd}, []byte(body))
	case bytes.HasPrefix(line, []byte("GET /count")):
		// The request count depends on cross-thread ordering: with the
		// custom lock uninstrumented, counts drift across variants and
		// this response diverges. (The evented mode has a single thread,
		// so its count is deterministic by construction.) The two pieces
		// go out as one gathered writev — its payload is compared like
		// any write, so drifted counts still trip the monitor. The flat
		// bytes and, behind them, their iovec encoding share scratch.
		const label = len("count=")
		scratch = strconv.AppendUint(append(scratch[:0], "count="...), uint64(count), 10)
		n := len(scratch)
		scratch = kernel.EncodeIovec(scratch, scratch[:label], scratch[label:n])
		flat := scratch[:n]
		if !sendVec(t, fd, scratch[n:], 2, flat) {
			sendAll(t, fd, flat)
		}
	default:
		if srv.pageFD == 0 || !sendFile(t, fd, srv.pageFD, len(srv.response)) {
			sendAll(t, fd, srv.response)
		}
	}
	return scratch
}

// connState is one open evented-mode connection: its descriptor and its
// request scratch buffer. Buffers are pooled across connections, so the
// steady-state accept→serve→close cycle allocates nothing.
type connState struct {
	fd  uint64
	buf []byte
}

// runEventedServer is the event-driven serving mode: one thread
// multiplexes the listener and every open connection through SysPoll,
// the way nginx's native event loop does — where the thread-pool mode
// above burns one vthread per in-flight connection, this one serves N
// connections with exactly one. Connections are keep-alive: the CLIENT
// ends one by closing, which arrives here as a recv EOF.
//
// Under the MVEE this exercises the poll replication path end to end:
// the master's poll parks on the kernel's poll wait set (allocation-free)
// until traffic arrives, its revents array is replicated to the slaves,
// and every variant's loop takes identical branches because the accept
// results (and therefore the polled fd sets) are replicated too. A
// wakeup's ready connections receive as one replicated batch — one ring
// reservation and one cross-core handoff per WAKEUP instead of per
// connection.
func runEventedServer(t *core.Thread, cfg Config) {
	srv := newPageSrv(t, cfg)

	sfd, ok := listen(t, cfg.Port, false)
	if !ok {
		return
	}

	// Single-threaded state: no locks needed, and the /count responses are
	// deterministic across variants by construction.
	var reqCount uint32
	conns := make([]connState, 0, 64)
	var spare [][]byte         // recycled request buffers of closed connections
	var pollBuf, revBuf []byte // the fd set and poll's revents, grown together
	var scratch []byte         // respond's /count buffer
	var ready []int
	var calls []kernel.Call
	var rets []kernel.Ret
	probeBuf := make([]byte, kernel.PollFDSize)
	probeRev := make([]byte, kernel.PollFDSize)

	takeBuf := func() []byte {
		if n := len(spare); n > 0 {
			b := spare[n-1]
			spare = spare[:n-1]
			return b
		}
		return make([]byte, recvBufSize)
	}
	// drop closes connection i and recycles its slot. Callers walk ready
	// indices in DESCENDING order, so the remove-by-swap never moves an
	// index a later iteration still needs.
	drop := func(i int) {
		t.Syscall(kernel.SysClose, [6]uint64{conns[i].fd}, nil)
		spare = append(spare, conns[i].buf)
		conns[i] = conns[len(conns)-1]
		conns = conns[:len(conns)-1]
	}

serve:
	for {
		// Entry 0 is the listener; entries 1..n are the open connections.
		// The fd set and the revents array poll writes (Call.Buf) are
		// reused across iterations (grown amortized), so the steady-state
		// loop allocates nothing.
		n := 1 + len(conns)
		need := n * kernel.PollFDSize
		if cap(pollBuf) < need {
			pollBuf = make([]byte, need, need*2)
			revBuf = make([]byte, need*2)
		}
		pollBuf = pollBuf[:need]
		kernel.EncodePollFD(pollBuf, 0, int(sfd), kernel.PollIn)
		for i, c := range conns {
			kernel.EncodePollFD(pollBuf, 1+i, int(c.fd), kernel.PollIn)
		}
		r := t.SyscallInto(kernel.SysPoll, [6]uint64{uint64(n), kernel.PollNoTimeout}, pollBuf, revBuf)
		if !r.Ok() {
			break
		}
		// Collect the wakeup's ready connections back to front (so the
		// remove-by-swap in drop keeps untouched indices stable), receive
		// them as one batch — poll guaranteed none of the receives blocks —
		// serve them, and only then accept. EOF or an error means the peer
		// is done with this keep-alive connection.
		ready = ready[:0]
		for i := len(conns) - 1; i >= 0; i-- {
			if kernel.DecodeRevents(r.Data, 1+i) != 0 {
				ready = append(ready, i)
			}
		}
		if len(ready) > 0 {
			if cap(calls) < len(ready) {
				calls = make([]kernel.Call, len(ready))
				rets = make([]kernel.Ret, len(ready))
			}
			calls, rets = calls[:len(ready)], rets[:len(ready)]
			for j, i := range ready {
				calls[j] = kernel.Call{
					Nr:   kernel.SysRecv,
					Args: [6]uint64{conns[i].fd, recvBufSize},
					Buf:  conns[i].buf,
				}
			}
			t.SyscallBatch(calls, rets)
		}
		for j, i := range ready {
			if line := requestLine(rets[j]); line != nil {
				reqCount++
				scratch = respond(t, srv, conns[i].fd, line, reqCount, scratch)
			} else {
				drop(i)
			}
		}
		lev := kernel.DecodeRevents(r.Data, 0)
		if lev&(kernel.PollHup|kernel.PollErr|kernel.PollNval) != 0 {
			break // listener closed: drain is done, shut down
		}
		// Drain the whole connect burst while the backlog is known ready:
		// accept blocks on an empty backlog, so each further accept is
		// gated on a zero-timeout single-entry probe of the listener — far
		// cheaper than paying a full fd-set poll round per connection.
		for lev&kernel.PollIn != 0 {
			fd, ok := accept(t, sfd)
			if !ok {
				break serve
			}
			conns = append(conns, connState{fd: fd, buf: takeBuf()})
			kernel.EncodePollFD(probeBuf, 0, int(sfd), kernel.PollIn)
			pr := t.SyscallInto(kernel.SysPoll, [6]uint64{1, 0}, probeBuf, probeRev)
			if !pr.Ok() {
				break serve
			}
			lev = kernel.DecodeRevents(pr.Data, 0)
		}
	}
	for _, c := range conns {
		t.Syscall(kernel.SysClose, [6]uint64{c.fd}, nil)
	}
}
