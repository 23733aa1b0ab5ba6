package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/webserver"
	wl "repro/internal/workload"
)

// Per-round operation counts at scale 1, sized on the 2-CPU reference host
// so one MVEE round takes a bit over a tenth of a second. A run's values are
// medians over its rounds, and on a small shared host the round-to-round
// noise (scheduler placement of 4 guest threads on 2 CPUs, host steal) is
// several percent whatever the round length: what steadies the median is
// the number of rounds, so rounds are as short as a steady per-round figure
// allows (tens of thousands of operations, >= 1000 latency samples) and a
// run fits about a hundred pairs.
const (
	syncFineUnits = 250_000 // fluidanimate work units; 2 sync ops each
	mixOpsPerThr  = 30_000  // monitored syscalls per guest thread
	keepaliveReqs = 16_000  // requests per round, all clients together
	connectReqs   = 8_000   // requests per round, all callers together
	serveWarmReqs = 500     // untimed requests per round before the timed ones
	servePort     = 8080
	servePageSize = 1024
	countShare    = 0.10 // share of GET /count in the request tapes
	// requestDeadline bounds one request. Requests take microseconds; one
	// that takes a second is wedged.
	requestDeadline = time.Second
)

// sessionOpts is the one MVEE configuration the benchmark measures (2
// variants, wall-of-clocks, ASLR+DCL) and its native baseline (1 variant,
// no agent).
func sessionOpts(mvee bool, seed int64) core.Options {
	o := core.Options{Variants: 1, Agent: agent.None, ASLR: true, DCL: true, Seed: seed, MaxThreads: 64}
	if mvee {
		o.Variants, o.Agent = 2, agent.WallOfClocks
	}
	return o
}

// workloadTable is the fixed workload list; later issues cite these names.
// build generates the workload's inputs from the seed.
var workloadTable = []struct {
	name  string
	build func(*env) *workload
}{
	{"sync_fine", syncFine},
	{"syscall_mix", syscallMix},
	{"serve_keepalive", serveKeepalive},
	{"serve_connect", serveConnect},
}

// checkResult applies the checks every session shares.
func checkResult(out *roundOut, res *core.Result) {
	if res.Divergence != nil {
		out.fail("diverged: %v", res.Divergence)
	}
	if res.Panic != nil {
		out.fail("guest panic: %v", res.Panic)
	}
}

// runSession starts s and waits for it under the round's watchdog, with
// spans at the two boundaries.
func runSession(s *core.Session, wd *watchdog, sb *spanBuf) *core.Result {
	wd.onExpire(s.Kill)
	sb.timed(spSessionStart, s.Start)
	var res *core.Result
	sb.timed(spSessionWait, func() { res = s.Wait() })
	return res
}

// ---------------------------------------------------------------- sync_fine

// syncFine is the paper's headline case: fluidanimate's fine-grained
// locking (256 spinlocks, ~200 syscalls per 3M sync ops). agent, synclib,
// clock and futex do nearly all the work; monitor does almost none.
func syncFine(e *env) *workload {
	units := e.ops(syncFineUnits)
	bm, err := wl.ByName("fluidanimate")
	if err != nil {
		panic(err) // the registry is compiled in; a missing name is a bug here
	}
	w := &workload{
		name: "sync_fine", unit: "syncops", jobLatency: true, planned: 2 * units,
		why: "fine-grained locking: agent/synclib/clock/futex do the work, monitor almost none (Table 2's 12.7M sync ops/s case)",
	}
	w.round = func(mvee bool, pair int, wd *watchdog, tr *tracer) (out roundOut) {
		sb := tr.buf(4)
		defer sb.flush()
		t0 := time.Now()
		prog := bm.Build(wl.Params{Workers: e.nproc, Units: units})
		var s *core.Session
		sb.timed(spSessionNew, func() { s = core.NewSession(sessionOpts(mvee, e.layoutSeed(pair)), prog) })
		out.setup = time.Since(t0)

		a0 := allocMark()
		t1 := time.Now()
		res := runSession(s, wd, sb)
		out.elapsed = time.Since(t1)
		out.allocBytes = allocMark() - a0

		// An operation is one of the program's own sync ops: a lock and an
		// unlock per unit. A spinlock retry is recorded as a sync op too, and
		// how many there are depends on how the threads happened to
		// interleave (natively 0-7% on top), so retries are reported
		// (syncops_per_op) but not counted as work done.
		out.attempted = w.planned
		out.records, out.syncops, out.stalls, out.served = res.Syscalls, res.SyncOps, res.Stalls, w.planned
		checkResult(&out, res)
		if sum, ok := s.Kernel().ReadFile("/checksum"); !ok || len(sum) == 0 {
			out.fail("no /checksum written")
		}
		if lo, hi := uint64(w.planned), uint64(w.planned)*5/4; res.SyncOps < lo || res.SyncOps > hi {
			out.fail("%d sync ops recorded, want %d (2 per unit) plus at most 25%% spin retries", res.SyncOps, lo)
		}
		if out.check != nil {
			out.failed = out.attempted
		}
		return out
	}
	return w
}

// -------------------------------------------------------------- syscall_mix

// syscallMix is the mirror image of sync_fine: no sync ops at all, every
// operation a monitored syscall under strict lockstep, so monitor's
// per-call path, ring and kernel do all the work.
func syscallMix(e *env) *workload {
	perThr := e.ops(mixOpsPerThr)
	in := newMixInput(e.seed, e.nproc, perThr)
	w := &workload{
		name: "syscall_mix", unit: "syscalls", planned: e.nproc * perThr,
		why: "monitored syscalls only (40% getpid, 30% pwrite 64B, 20% pread 4KiB, 10% gettimeofday), strict lockstep: monitor per-call path, ring and kernel do the work, agent none",
	}
	w.round = func(mvee bool, pair int, wd *watchdog, tr *tracer) (out roundOut) {
		sb := tr.buf(4)
		defer sb.flush()
		t0 := time.Now()
		k := kernel.New()
		k.WriteFile(mixDataPath, in.data)
		k.WriteFile(mixOutPath, make([]byte, e.nproc*mixWriteSize))
		opts := sessionOpts(mvee, e.layoutSeed(pair))
		opts.Kernel = k
		opts.Policy = monitor.PolicyStrictLockstep
		rec := &mixRecorder{lat: make([][]int64, e.nproc)}
		for i := range rec.lat {
			rec.lat[i] = make([]int64, 0, perThr/mixSampleEvery+1)
		}
		var s *core.Session
		sb.timed(spSessionNew, func() { s = core.NewSession(opts, mixProgram(in, rec)) })
		out.setup = time.Since(t0)

		a0 := allocMark()
		t1 := time.Now()
		res := runSession(s, wd, sb)
		out.elapsed = time.Since(t1)
		out.allocBytes = allocMark() - a0

		out.attempted = e.nproc * perThr
		out.records, out.syncops, out.stalls, out.served = res.Syscalls, res.SyncOps, res.Stalls, out.attempted
		for _, l := range rec.lat {
			out.lat = append(out.lat, l...)
		}
		checkResult(&out, res)
		// Both sides of a pair are held to the tape's value, and so to each
		// other's.
		if sum, _ := k.ReadFile(mixSumPath); string(sum) != in.expect {
			out.fail("pread checksum %q, tape expects %q", sum, in.expect)
		}
		if out.check != nil {
			out.failed = out.attempted
		}
		return out
	}
	return w
}

// ------------------------------------------------------------------ serving

var (
	pageRequest  = []byte("GET / HTTP/1.1")
	countRequest = []byte("GET /count")
	pageResponse = []byte("HTTP/1.1 200 OK\r\n\r\n" + strings.Repeat("x", servePageSize))
	countPrefix  = []byte("count=")
)

// requestTape is one client's seed-generated request sequence: true = GET
// /count (writev path), false = GET / (sendfile path).
func requestTapes(seed int64, clients, total int) [][]bool {
	tapes := make([][]bool, clients)
	for c := range tapes {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		tapes[c] = make([]bool, total/clients)
		for i := range tapes[c] {
			tapes[c][i] = rng.Float64() < countShare
		}
	}
	return tapes
}

// checkResponse validates one response and returns the /count value (0 for
// a page).
func checkResponse(isCount bool, resp []byte) (uint64, error) {
	if !isCount {
		if !bytes.Equal(resp, pageResponse) {
			return 0, fmt.Errorf("page response: %d bytes, want %d with the 200 header", len(resp), len(pageResponse))
		}
		return 0, nil
	}
	if !bytes.HasPrefix(resp, countPrefix) {
		return 0, fmt.Errorf("count response %q lacks prefix", resp)
	}
	n, err := strconv.ParseUint(string(resp[len(countPrefix):]), 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("count response %q: not a positive number", resp)
	}
	return n, nil
}

// awaitListener connects to port as soon as the guest listens.
func awaitListener(k *kernel.Kernel, port uint16, s *core.Session) (kernel.ClientConn, bool) {
	for spins := 0; ; spins++ {
		if cc, errno := k.Connect(port); errno == kernel.OK {
			return cc, true
		}
		if s.Monitor().Killed() {
			return kernel.ClientConn{}, false
		}
		if spins < 1000 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// kaClient is one keep-alive connection driven by one goroutine.
type kaClient struct {
	mu   sync.Mutex // orders the owner's writes of cc/open with the watchdogs' kick
	cc   kernel.ClientConn
	open bool
	// inflight is the start (ns since round begin, +1) of the request being
	// waited for; 0 = idle. The request watchdog reads it.
	inflight  atomic.Int64
	lastCount uint64 // last /count value seen on this connection
	buf       []byte
}

func (c *kaClient) connect(k *kernel.Kernel) bool {
	cc, errno := k.Connect(servePort)
	if errno != kernel.OK {
		return false
	}
	c.mu.Lock()
	c.cc, c.open = cc, true
	c.mu.Unlock()
	c.lastCount = 0
	return true
}

// close is the owning goroutine's close; kick is the watchdogs': it closes
// the connection under the owner, whose pending read then fails, and leaves
// the bookkeeping (open) to the owner.
func (c *kaClient) close() {
	c.mu.Lock()
	if c.open {
		c.cc.Close()
		c.open = false
	}
	c.mu.Unlock()
}

func (c *kaClient) kick() {
	c.mu.Lock()
	cc, open := c.cc, c.open
	c.mu.Unlock()
	if open {
		cc.Close()
	}
}

// do plays one request on the kept connection and checks the response.
func (c *kaClient) do(isCount bool, sb *spanBuf, req uint32) error {
	reqBytes, want := pageRequest, len(pageResponse)
	if isCount {
		reqBytes, want = countRequest, 1
	}
	var t0 time.Time
	if sb != nil {
		t0 = time.Now()
	}
	if _, err := c.cc.Write(reqBytes); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	var t1 time.Time
	if sb != nil {
		t1 = time.Now()
		sb.add(spWrite, 0, req, req, t0, t1)
	}
	got := 0
	for got < want {
		n, err := c.cc.Read(c.buf[got:])
		if err != nil || n == 0 {
			return fmt.Errorf("read after %d bytes: n=%d err=%v", got, n, err)
		}
		got += n
	}
	if sb != nil {
		sb.add(spRead, 0, req, req, t1, time.Now())
	}
	n, err := checkResponse(isCount, c.buf[:got])
	if err != nil {
		return err
	}
	if isCount {
		if n <= c.lastCount {
			return fmt.Errorf("count %d after %d on one connection", n, c.lastCount)
		}
		c.lastCount = n
	}
	return nil
}

// serveKeepalive drives the evented server (batching on) directly on the
// session kernel over keep-alive connections: monitor's batch path plus
// kernel poll/sendfile/pipe, bypassing fleet and connect/accept.
func serveKeepalive(e *env) *workload {
	total := e.ops(keepaliveReqs)
	warm := min(serveWarmReqs, total)
	tapes := requestTapes(e.seed, e.nproc, total)
	w := &workload{
		name: "serve_keepalive", unit: "requests", requestLatency: true, planned: len(tapes[0]) * e.nproc,
		why: "evented server, keep-alive, 90% sendfile page / 10% writev count: monitor batch path plus kernel poll/sendfile/pipe; bypasses fleet and connect/accept",
	}
	w.round = func(mvee bool, pair int, wd *watchdog, tr *tracer) (out roundOut) {
		sb := tr.buf(8)
		defer sb.flush()
		t0 := time.Now()
		cfg := webserver.Config{Port: servePort, PageSize: servePageSize, Evented: true, InstrumentCustomSync: true}
		var s *core.Session
		sb.timed(spSessionNew, func() { s = core.NewSession(sessionOpts(mvee, e.layoutSeed(pair)), webserver.Program(cfg)) })
		k := s.Kernel()
		wd.onExpire(s.Kill)
		sb.timed(spSessionStart, s.Start)
		probe, ok := awaitListener(k, servePort, s)
		if !ok {
			out.attempted, out.failed = w.planned, w.planned
			out.fail("server died before listening")
			s.Wait()
			return out
		}
		probe.Close()

		clients := make([]*kaClient, e.nproc)
		for i := range clients {
			clients[i] = &kaClient{buf: make([]byte, 2*len(pageResponse))}
			c := clients[i]
			wd.onExpire(c.kick)
			if !c.connect(k) {
				out.fail("connect refused")
			}
		}
		// Untimed warm-up on the very connections the timed requests use:
		// lazily created rings and the server's buffer pool fill here.
		for _, c := range clients {
			for i := 0; i < warm/e.nproc && c.open; i++ {
				if err := c.do(i%10 == 9, nil, 0); err != nil {
					out.fail("warm-up: %v", err)
					break
				}
			}
		}
		lats := make([][]int64, e.nproc)
		for i := range lats {
			lats[i] = make([]int64, 0, len(tapes[i]))
		}
		out.setup = time.Since(t0)

		// Request watchdog: a request older than requestDeadline has its
		// connection closed under it; the client counts it failed and
		// carries on over a fresh connection.
		begin := time.Now()
		stop := make(chan struct{})
		var wdDone sync.WaitGroup
		wdDone.Add(1)
		go func() {
			defer wdDone.Done()
			tick := time.NewTicker(requestDeadline / 4)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					now := time.Since(begin).Nanoseconds()
					for _, c := range clients {
						if at := c.inflight.Load(); at != 0 && now-at > requestDeadline.Nanoseconds() {
							c.kick()
						}
					}
				}
			}
		}()

		var failed, reconnects atomic.Int64
		var firstErr atomic.Pointer[error]
		a0 := allocMark()
		t1 := time.Now()
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				csb := tr.buf(3 * len(tapes[ci]))
				defer csb.flush()
				for _, isCount := range tapes[ci] {
					start := time.Now()
					c.inflight.Store(start.Sub(begin).Nanoseconds() + 1)
					req := csb.newID()
					if !c.open {
						tc := time.Now()
						okc := c.connect(k)
						csb.add(spConnect, 0, req, req, tc, time.Now())
						if !okc {
							failed.Add(1)
							continue
						}
						reconnects.Add(1)
					}
					err := c.do(isCount, csb, req)
					end := time.Now()
					c.inflight.Store(0)
					if err != nil {
						failed.Add(1)
						firstErr.CompareAndSwap(nil, &err)
						tc := time.Now()
						c.close()
						csb.add(spClose, 0, req, req, tc, time.Now())
					} else {
						lats[ci] = append(lats[ci], end.Sub(start).Nanoseconds())
					}
					csb.add(spRequest, req, 0, req, start, end)
				}
			}()
		}
		wg.Wait()
		out.elapsed = time.Since(t1)
		out.allocBytes = allocMark() - a0
		close(stop)
		wdDone.Wait()

		for _, c := range clients {
			c.close()
		}
		k.CloseListener(servePort)
		var res *core.Result
		sb.timed(spSessionWait, func() { res = s.Wait() })

		out.attempted = w.planned
		out.failed = int(failed.Load())
		out.reconnects = int(reconnects.Load())
		for _, l := range lats {
			out.lat = append(out.lat, l...)
		}
		out.records, out.syncops, out.stalls = res.Syscalls, res.SyncOps, res.Stalls
		out.served = out.attempted - out.failed + warm/e.nproc*e.nproc
		checkResult(&out, res)
		if p := firstErr.Load(); p != nil {
			out.fail("request: %v", *p)
		}
		return out
	}
	return w
}

// serveConnect drives the prefork server (4 worker processes) through a
// pool-1 fleet, one connection per request: the same monitor and kernel
// used differently — per-call path, connect/accept/close, multi-process
// tids — and the only workload where fleet's gateway does work.
func serveConnect(e *env) *workload {
	total := e.ops(connectReqs)
	warm := min(serveWarmReqs, total)
	tapes := requestTapes(e.seed, e.nproc, total)
	w := &workload{
		name: "serve_connect", unit: "requests", requestLatency: true, planned: len(tapes[0]) * e.nproc,
		why: "prefork server behind a pool-1 fleet, one connection per request: monitor per-call path, connect/accept/close, multi-process tids, and the only workload where fleet's gateway works",
	}
	w.round = func(mvee bool, pair int, wd *watchdog, tr *tracer) (out roundOut) {
		sb := tr.buf(8)
		defer sb.flush()
		t0 := time.Now()
		cfg := webserver.Config{Port: servePort, PageSize: servePageSize, Prefork: true, Workers: 4, InstrumentCustomSync: true}
		fc := webserver.FleetConfig(cfg, sessionOpts(mvee, e.layoutSeed(pair)), 1)
		fc.RequestTimeout = requestDeadline
		fc.DrainTimeout = deadlineFloor
		var f *fleet.Fleet
		var err error
		sb.timed(spFleetNew, func() { f, err = fleet.New(fc) })
		if err != nil {
			out.attempted, out.failed = w.planned, w.planned
			out.fail("fleet.New: %v", err)
			return out
		}
		var closeOnce sync.Once
		closeFleet := func() { closeOnce.Do(f.Close) }
		wd.onExpire(func() { go closeFleet() }) // Close drains; never block the watchdog on it
		for i := 0; i < warm; i++ {
			if _, err := f.Do(pageRequest); err != nil {
				out.fail("warm-up: %v", err)
				break
			}
		}
		lats := make([][]int64, e.nproc)
		for i := range lats {
			lats[i] = make([]int64, 0, len(tapes[i]))
		}
		out.setup = time.Since(t0)

		var failed atomic.Int64
		var firstErr atomic.Pointer[error]
		a0 := allocMark()
		t1 := time.Now()
		var wg sync.WaitGroup
		for ci := range tapes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				csb := tr.buf(2 * len(tapes[ci]))
				defer csb.flush()
				for _, isCount := range tapes[ci] {
					reqBytes := pageRequest
					if isCount {
						reqBytes = countRequest
					}
					req := csb.newID()
					start := time.Now()
					resp, err := f.Do(reqBytes)
					end := time.Now()
					csb.add(spFleetDo, 0, req, req, start, end)
					if err == nil {
						_, err = checkResponse(isCount, resp)
					}
					if err != nil {
						failed.Add(1)
						firstErr.CompareAndSwap(nil, &err)
					} else {
						lats[ci] = append(lats[ci], end.Sub(start).Nanoseconds())
					}
					csb.add(spRequest, req, 0, req, start, time.Now())
				}
			}()
		}
		wg.Wait()
		out.elapsed = time.Since(t1)
		out.allocBytes = allocMark() - a0

		snap := f.Snapshot()
		sb.timed(spFleetClose, closeFleet)

		out.attempted = w.planned
		out.failed = int(failed.Load())
		for _, l := range lats {
			out.lat = append(out.lat, l...)
		}
		if len(snap.Members) > 0 {
			out.records = snap.Members[0].Syscalls
		}
		out.served = int(snap.Stats.Served)
		if snap.Stats.Divergences+snap.Stats.Deadlocks+snap.Stats.Crashes > 0 {
			out.fail("fleet quarantined a member: %d divergences, %d deadlocks, %d crashes",
				snap.Stats.Divergences, snap.Stats.Deadlocks, snap.Stats.Crashes)
		}
		if p := firstErr.Load(); p != nil {
			out.fail("request: %v", *p)
		}
		return out
	}
	return w
}
