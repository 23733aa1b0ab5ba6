package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	mvee "repro"
	"repro/internal/agent"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/webserver"
)

// The per-layer cost ledger: every cell times public calls of ONE layer
// from outside, the way bench_test.go's micro-benchmarks do, but time-based
// (each rep runs for cellTimer.rep) and reported as the median of reps.
// README.md says which end-to-end metric each cell should move.

// cellTimer sizes the cells: rep is how long one repetition runs, reps how
// many repetitions feed the median.
type cellTimer struct {
	rep  time.Duration
	reps int
}

// run calibrates an operation count that fills one rep, then times reps
// repetitions of f(n) — f runs n operations and returns how long they took,
// with any set-up outside its own clock.
func (c cellTimer) run(f func(n int) time.Duration) metric {
	n := 64
	el := f(n)
	for el < c.rep/4 && n < 1<<28 {
		n *= 4
		el = f(n)
	}
	n = max(int(float64(n)*float64(c.rep)/float64(max(el, 1))), 1)
	samples := make([]float64, c.reps)
	for i := range samples {
		samples[i] = float64(f(n).Nanoseconds()) / float64(n)
	}
	return newMetric("ns", samples)
}

// layerCells measures every cell and the rows derived from them.
func layerCells(c cellTimer, nproc int, seed int64) map[string]metric {
	m := map[string]metric{}

	m["ring.append_get_ns"] = c.run(ringAppendGet)
	m["ring.batch16_ns_per_item"] = c.run(ringBatch16)
	m["ring.park_wake_ns"] = c.run(ringParkWake)

	m["futex.parker_handoff_ns"] = c.run(parkerHandoff)
	m["futex.table_wait_wake_ns"] = c.run(tableWaitWake)

	m["clock.ticket_take_ns"] = c.run(func(n int) time.Duration {
		var tk clock.Tickets
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tk.Take()
		}
		return time.Since(t0)
	})
	m["clock.wall_tick_ns"] = c.run(func(n int) time.Duration {
		w := clock.NewWall(clock.DefaultWallSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w.Tick(w.ClockOf(uint64(0x1000 + i*64)))
		}
		return time.Since(t0)
	})

	kinds := []struct {
		tag  string
		kind agent.Kind
	}{{"to", agent.TotalOrder}, {"po", agent.PartialOrder}, {"woc", agent.WallOfClocks}}
	var wocStalls, wocOps uint64
	for _, k := range kinds {
		for _, threads := range []int{1, 2, 4} {
			m[fmt.Sprintf("agent.%s.t%d.ns_per_op", k.tag, threads)] = c.run(func(n int) time.Duration {
				el, stalls, ops := agentPairs(k.kind, threads, n)
				if k.kind == agent.WallOfClocks && threads == 4 {
					wocStalls, wocOps = wocStalls+stalls, wocOps+ops
				}
				return el
			})
		}
	}
	m["agent.woc.stalls_per_kop"] = single("count", 1000*float64(wocStalls)/float64(max(wocOps, 1)), 1)
	// The paper's ordering (Figure 5, Table 1), asserted at 4 threads with
	// 15% tolerance: wall-of-clocks is no slower than either single-buffer
	// agent.
	woc := m["agent.woc.t4.ns_per_op"].Value
	shape := 0.0
	if woc <= 1.15*m["agent.to.t4.ns_per_op"].Value && woc <= 1.15*m["agent.po.t4.ns_per_op"].Value {
		shape = 1
	}
	m["agent.shape_ok"] = single("bool", shape, 1)

	kernelCells(c, m, seed)
	monitorCells(c, m)

	m["telemetry.matrix_inc_ns"] = c.run(func(n int) time.Duration {
		mx := telemetry.NewMatrix(2)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			mx.Inc(0, 0, kernel.SysGetpid)
		}
		return time.Since(t0)
	})
	m["telemetry.flight_append_ns"] = c.run(func(n int) time.Duration {
		f := telemetry.NewFlight(telemetry.FlightCap)
		args := [6]uint64{1, 2, 3}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f.Append(kernel.SysGetpid, 0, telemetry.Digest(&args, nil), uint64(i), 0)
		}
		return time.Since(t0)
	})

	coreCells(c, m, seed)
	servingCells(c, m, seed)
	return m
}

// ---------------------------------------------------------------------- ring

func ringAppendGet(n int) time.Duration {
	l := ring.NewLog[uint64](1024, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			l.Append(uint64(i))
		}
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.Get(uint64(i))
		l.Advance(0, uint64(i))
	}
	el := time.Since(t0)
	<-done
	return el
}

func ringBatch16(n int) time.Duration {
	const batch = 16
	n = (n + batch - 1) / batch * batch
	l := ring.NewLog[uint64](1024, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var vs [batch]uint64
		for i := 0; i < n; i += batch {
			l.AppendBatch(vs[:])
		}
	}()
	var out [batch]uint64
	t0 := time.Now()
	for got, spins := 0, 0; got < n; {
		if k := l.TryConsumeBatch(0, out[:]); k > 0 {
			got, spins = got+k, 0
			continue
		}
		ring.Backoff(spins)
		spins++
	}
	el := time.Since(t0)
	<-done
	return el
}

// ringParkWake times publish-to-wake for a consumer parked on an empty
// log: the producer waits until the consumer has announced itself on the
// log's wait set, then appends; the consumer stamps its return from Get.
func ringParkWake(n int) time.Duration {
	l := ring.NewLog[uint64](64, 1)
	woke := make(chan time.Time)
	go func() {
		for i := 0; i < n; i++ {
			l.Get(uint64(i))
			t := time.Now()
			l.Advance(0, uint64(i))
			woke <- t
		}
	}()
	var total time.Duration
	for i := 0; i < n; i++ {
		for l.Parker().Waiters() == 0 {
			runtime.Gosched()
		}
		runtime.Gosched() // let the announced waiter reach its sleep
		t0 := time.Now()
		l.Append(uint64(i))
		total += (<-woke).Sub(t0)
	}
	return total
}

// --------------------------------------------------------------------- futex

// pingPong runs n round trips between two goroutines; wait(side, i) blocks
// until side's word reaches i, post(side, i) sets the other side's word and
// wakes it. One handoff is half a round trip.
func pingPong(n int, wait func(side, i int), post func(side, i int)) time.Duration {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			wait(1, i)
			post(0, i)
		}
	}()
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		post(1, i)
		wait(0, i)
	}
	el := time.Since(t0)
	<-done
	return el / 2
}

func parkerHandoff(n int) time.Duration {
	var words [2]atomic.Int64
	var parks [2]futex.Parker
	return pingPong(n,
		func(side, i int) {
			for words[side].Load() < int64(i) {
				g := parks[side].Prepare()
				if words[side].Load() >= int64(i) {
					parks[side].Cancel()
					break
				}
				parks[side].Park(g)
			}
		},
		func(side, i int) {
			words[side].Store(int64(i))
			parks[side].Wake()
		})
}

func tableWaitWake(n int) time.Duration {
	var words [2]atomic.Uint32
	var tbl futex.Table
	return pingPong(n,
		func(side, i int) {
			for {
				v := words[side].Load()
				if v >= uint32(i) {
					return
				}
				tbl.Wait(&words[side], v)
			}
		},
		func(side, i int) {
			words[side].Store(uint32(i))
			tbl.Wake(&words[side], 1)
		})
}

// --------------------------------------------------------------------- agent

// agentPairs drives `threads` master threads and their slave counterparts
// through n sync ops in total, each thread on its own variable (as
// BenchmarkAgentMicro, at 1, 2 and 4 threads).
func agentPairs(kind agent.Kind, threads, n int) (el time.Duration, stalls, ops uint64) {
	per := max(n/threads, 1)
	ex := agent.NewExchange(kind, agent.Config{Slaves: 1, MaxThreads: threads, BufCap: 4096, WallSize: 4096})
	defer ex.Stop()
	m, s := ex.MasterAgent(), ex.SlaveAgent(0)
	var wg sync.WaitGroup
	loop := func(a agent.Agent, tid int, base uint64) {
		defer wg.Done()
		addr := base + uint64(tid)*64
		for i := 0; i < per; i++ {
			a.Before(tid, addr)
			a.After(tid, addr)
		}
	}
	t0 := time.Now()
	for tid := 0; tid < threads; tid++ {
		wg.Add(2)
		go loop(s, tid, 0x9000)
		go loop(m, tid, 0x1000)
	}
	wg.Wait()
	return time.Since(t0), s.Stalls(), uint64(per * threads)
}

// -------------------------------------------------------------------- kernel

func kernelCells(c cellTimer, m map[string]metric, seed int64) {
	k := kernel.New()
	p := k.NewProc(0x1000_0000, 0x7000_0000)
	do := func(call kernel.Call) kernel.Ret {
		r := k.Do(p, call)
		if !r.Ok() {
			panic(fmt.Sprintf("benchmark: kernel %v: %v", call.Nr, r.Err))
		}
		return r
	}
	loop := func(call func(i int) kernel.Call) func(n int) time.Duration {
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				k.Do(p, call(i))
			}
			return time.Since(t0)
		}
	}
	data := newMixInput(seed, 0, 0).data
	k.WriteFile(mixDataPath, data)
	src := do(kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{kernel.ORdonly}, Data: []byte(mixDataPath)}).Val
	dst := do(kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{kernel.OCreat | kernel.ORdwr}, Data: []byte(mixOutPath)}).Val
	do(kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{dst, 0}, Data: data[:mixWriteSize]})

	m["kernel.getpid_ns"] = c.run(loop(func(int) kernel.Call { return kernel.Call{Nr: kernel.SysGetpid} }))
	m["kernel.pwrite64_ns"] = c.run(loop(func(int) kernel.Call {
		return kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{dst, 0}, Data: data[:mixWriteSize]}
	}))
	m["kernel.pread4k_ns"] = c.run(loop(func(i int) kernel.Call {
		return kernel.Call{Nr: kernel.SysPread, Args: [6]uint64{src, mixReadSize, uint64(i*64) % (mixDataSize - mixReadSize)}}
	}))

	// Sockets: a listener, and one accepted connection with a request
	// pending — the evented server's poll set in miniature.
	sfd := do(kernel.Call{Nr: kernel.SysSocket}).Val
	do(kernel.Call{Nr: kernel.SysListen, Args: [6]uint64{sfd, servePort, 128}})
	cc, errno := k.Connect(servePort)
	if errno != kernel.OK {
		panic(fmt.Sprintf("benchmark: connect: %v", errno))
	}
	conn := do(kernel.Call{Nr: kernel.SysAccept, Args: [6]uint64{sfd}}).Val
	cc.Write(pageRequest)
	pollBuf := make([]byte, 2*kernel.PollFDSize)
	m["kernel.poll2_ns"] = c.run(loop(func(int) kernel.Call {
		kernel.EncodePollFD(pollBuf, 0, int(sfd), kernel.PollIn)
		kernel.EncodePollFD(pollBuf, 1, int(conn), kernel.PollIn)
		return kernel.Call{Nr: kernel.SysPoll, Args: [6]uint64{2, kernel.PollNoTimeout}, Data: pollBuf}
	}))

	// sendfile: the 1 KiB response file to the socket. The client's read
	// that drains the pipe is inside the clock (without it the pipe fills).
	k.WriteFile("/page", pageResponse)
	page := do(kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{kernel.ORdonly}, Data: []byte("/page")}).Val
	rbuf := make([]byte, 2*len(pageResponse))
	m["kernel.sendfile1k_ns"] = c.run(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			k.Do(p, kernel.Call{Nr: kernel.SysSendfile, Args: [6]uint64{conn, page, 0, uint64(len(pageResponse))}})
			cc.Read(rbuf)
		}
		return time.Since(t0)
	})
	cc.Close()
	do(kernel.Call{Nr: kernel.SysClose, Args: [6]uint64{conn}})

	m["kernel.connect_accept_close_ns"] = c.run(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c1, errno := k.Connect(servePort)
			if errno != kernel.OK {
				panic(fmt.Sprintf("benchmark: connect: %v", errno))
			}
			a := k.Do(p, kernel.Call{Nr: kernel.SysAccept, Args: [6]uint64{sfd}})
			k.Do(p, kernel.Call{Nr: kernel.SysClose, Args: [6]uint64{a.Val}})
			c1.Close()
		}
		return time.Since(t0)
	})
	k.CloseListener(servePort)
}

// ------------------------------------------------------------------- monitor

// monitorCfg is one monitor cell's configuration.
type monitorCfg struct {
	variants  int
	policy    monitor.Policy
	telemetry bool
	detector  bool
	batch     int // > 0: InvokeBatchOn with this many calls per trap
	call      func(src, dst uint64, i int) kernel.Call
}

// monitorLoop drives one guest thread per variant through n monitored calls
// (master on the timing goroutine, slaves beside it), as
// BenchmarkReplicationHotPath does.
func monitorLoop(cfg monitorCfg) func(n int) time.Duration {
	data := make([]byte, mixWriteSize)
	for i := range data {
		data[i] = byte(i)
	}
	return func(n int) time.Duration {
		k := kernel.New()
		k.WriteFile(mixDataPath, make([]byte, mixDataSize))
		procs := make([]*kernel.Proc, cfg.variants)
		for v := range procs {
			procs[v] = k.NewProc(0x1000_0000+uint64(v)<<28, 0x7000_0000+uint64(v)<<24)
		}
		m := monitor.New(k, procs, monitor.Config{MaxThreads: 2, RingCap: 1024,
			Policy: cfg.policy, Telemetry: cfg.telemetry})
		if cfg.detector {
			// Armed exactly as a DetectDeadlocks session arms it: a live
			// board on the master proc with the calling thread registered.
			board := kernel.NewBlockBoard(2, func([]kernel.BlockedSite) {})
			defer board.Close()
			procs[0].SetBlockBoard(board)
			board.ThreadStart(0)
			defer board.ThreadExit(0)
		}
		setup := func(v int) (src, dst uint64) {
			src = m.Invoke(v, 0, kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{kernel.ORdonly}, Data: []byte(mixDataPath)}).Val
			dst = m.Invoke(v, 0, kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{kernel.OCreat | kernel.ORdwr}, Data: []byte(mixOutPath)}).Val
			m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{dst, 0}, Data: data})
			return src, dst
		}
		loop := func(v int, src, dst uint64) {
			if cfg.batch > 0 {
				calls := make([]kernel.Call, cfg.batch)
				rets := make([]kernel.Ret, cfg.batch)
				for i := 0; i < n; i += cfg.batch {
					for j := range calls {
						calls[j] = cfg.call(src, dst, i+j)
					}
					m.InvokeBatchOn(v, 0, procs[v], calls, rets)
				}
				return
			}
			for i := 0; i < n; i++ {
				m.Invoke(v, 0, cfg.call(src, dst, i))
			}
		}
		var ready, done sync.WaitGroup
		for v := 1; v < cfg.variants; v++ {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				src, dst := setup(v)
				ready.Done()
				loop(v, src, dst)
			}()
		}
		src, dst := setup(0)
		ready.Wait()
		t0 := time.Now()
		loop(0, src, dst)
		el := time.Since(t0)
		done.Wait()
		if d := m.Divergence(); d != nil {
			panic(fmt.Sprintf("benchmark: monitor cell diverged: %v", d))
		}
		return el
	}
}

func monitorCells(c cellTimer, m map[string]metric) {
	getpid := func(_, _ uint64, _ int) kernel.Call { return kernel.Call{Nr: kernel.SysGetpid} }
	payload := make([]byte, mixWriteSize)
	pwrite := func(_, dst uint64, _ int) kernel.Call {
		return kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{dst, 0}, Data: payload}
	}
	pread := func(src, _ uint64, i int) kernel.Call {
		return kernel.Call{Nr: kernel.SysPread, Args: [6]uint64{src, mixReadSize, uint64(i*64) % (mixDataSize - mixReadSize)}}
	}
	strict, relaxed := monitor.PolicyStrictLockstep, monitor.PolicySecuritySensitive
	cells := []struct {
		name string
		cfg  monitorCfg
	}{
		{"monitor.v1.getpid_ns", monitorCfg{variants: 1, policy: strict, call: getpid}},
		{"monitor.relaxed.getpid_ns", monitorCfg{variants: 2, policy: relaxed, call: getpid}},
		{"monitor.strict.getpid_ns", monitorCfg{variants: 2, policy: strict, call: getpid}},
		{"monitor.relaxed.pwrite64_ns", monitorCfg{variants: 2, policy: relaxed, call: pwrite}},
		{"monitor.strict.pwrite64_ns", monitorCfg{variants: 2, policy: strict, call: pwrite}},
		{"monitor.strict.pread4k_ns", monitorCfg{variants: 2, policy: strict, call: pread}},
		{"monitor.batch8.ns_per_call", monitorCfg{variants: 2, policy: strict, call: getpid, batch: 8}},
	}
	for _, cell := range cells {
		m[cell.name] = c.run(monitorLoop(cell.cfg))
	}
	base := m["monitor.strict.getpid_ns"].Value
	withTelemetry := c.run(monitorLoop(monitorCfg{variants: 2, policy: strict, call: getpid, telemetry: true}))
	withDetector := c.run(monitorLoop(monitorCfg{variants: 2, policy: strict, call: getpid, detector: true}))
	m["monitor.telemetry_delta_ns"] = single("ns", withTelemetry.Value-base, 1)
	m["monitor.detector_delta_ns"] = single("ns", withDetector.Value-base, 1)

	// The budget table for one strict-lockstep getpid: what each layer adds
	// on top of the one below. A cost cannot be negative, so each row is
	// clamped at 0; residual_frac is how far kernel + rows then is from the
	// strict cell — 0 when the four separately measured medians nest as the
	// layers do, positive when noise (or a real inversion) breaks the nesting.
	v1, rel := m["monitor.v1.getpid_ns"].Value, m["monitor.relaxed.getpid_ns"].Value
	kget := m["kernel.getpid_ns"].Value
	rows := [3]float64{max(base-rel, 0), max(rel-v1, 0), max(v1-kget, 0)}
	m["ledger.rendezvous_ns"] = single("ns", rows[0], 1)
	m["ledger.replication_ns"] = single("ns", rows[1], 1)
	m["ledger.monitor_entry_ns"] = single("ns", rows[2], 1)
	m["ledger.residual_frac"] = single("frac", math.Abs(kget+rows[0]+rows[1]+rows[2]-base)/base, 1)
}

// ---------------------------------------------------------------------- core

func coreCells(c cellTimer, m map[string]metric, seed int64) {
	session := func(mv bool, prog core.Program) time.Duration {
		t0 := time.Now()
		res := core.Run(sessionOpts(mv, seed), prog)
		el := time.Since(t0)
		if res.Divergence != nil || res.Panic != nil {
			panic(fmt.Sprintf("benchmark: core cell failed: %v %v", res.Divergence, res.Panic))
		}
		return el
	}
	mutexPairs := func(mv bool) func(n int) time.Duration {
		return func(n int) time.Duration {
			return session(mv, core.Program{Name: "mutex-pairs", Main: func(t *core.Thread) {
				mu := mvee.NewMutex(t)
				for i := 0; i < n; i++ {
					mu.Lock(t)
					mu.Unlock(t)
				}
			}})
		}
	}
	m["core.mutex_pair_ns.v1"] = c.run(mutexPairs(false))
	m["core.mutex_pair_ns.woc2"] = c.run(mutexPairs(true))

	empty := core.Program{Name: "empty", Main: func(*core.Thread) {}}
	m["core.session_start_ns"] = c.run(func(n int) time.Duration {
		var el time.Duration
		for i := 0; i < n; i++ {
			el += session(true, empty)
		}
		return el
	})
	// Thread ids are never recycled, so one session can spawn at most
	// MaxThreads-1 threads: time sessions that spawn and join spawnBurst
	// threads, and take the empty session's cost back out.
	const spawnBurst = 48
	burst := core.Program{Name: "spawn-join", Main: func(t *core.Thread) {
		for i := 0; i < spawnBurst; i++ {
			if h := t.Spawn(func(*core.Thread) {}); h != nil {
				h.Join()
			}
		}
	}}
	withBurst := c.run(func(n int) time.Duration {
		var el time.Duration
		for i := 0; i < n; i++ {
			el += session(true, burst)
		}
		return el
	})
	m["core.spawn_join_ns"] = single("ns", (withBurst.Value-m["core.session_start_ns"].Value)/spawnBurst, 1)
}

// ------------------------------------------------------------------- serving

// servingCells prices the native (1-variant) request paths the serve_*
// workloads divide by, and the fleet gateway on top of one of them.
func servingCells(c cellTimer, m map[string]metric, seed int64) {
	native := sessionOpts(false, seed)
	native.Telemetry = true // fleet always runs members with telemetry; match it

	prefork := webserver.Config{Port: servePort, PageSize: servePageSize, Prefork: true, Workers: 4, InstrumentCustomSync: true}
	evented := webserver.Config{Port: servePort, PageSize: servePageSize, Evented: true, InstrumentCustomSync: true}
	buf := make([]byte, 2*len(pageResponse))

	direct := func(cfg webserver.Config, keepalive bool) func(n int) time.Duration {
		return func(n int) time.Duration {
			s := core.NewSession(native, webserver.Program(cfg))
			s.Start()
			k := s.Kernel()
			cc, ok := awaitListener(k, servePort, s)
			if !ok {
				panic("benchmark: native server died before listening")
			}
			if !keepalive {
				cc.Close()
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if !keepalive {
					cc, _ = k.Connect(servePort)
				}
				cc.Write(pageRequest)
				for got := 0; got < len(pageResponse); {
					r, err := cc.Read(buf[got:])
					if err != nil || r == 0 {
						panic(fmt.Sprintf("benchmark: native request %d: read n=%d err=%v", i, r, err))
					}
					got += r
				}
				if !keepalive {
					cc.Close()
				}
			}
			el := time.Since(t0)
			cc.Close()
			k.CloseListener(servePort)
			s.Wait()
			return el
		}
	}
	m["webserver.native_req_ns.connect"] = c.run(direct(prefork, false))
	m["webserver.native_req_ns.keepalive"] = c.run(direct(evented, true))

	m["fleet.do_native_ns"] = c.run(func(n int) time.Duration {
		f, err := fleet.New(webserver.FleetConfig(prefork, sessionOpts(false, seed), 1))
		if err != nil {
			panic(fmt.Sprintf("benchmark: fleet.New: %v", err))
		}
		defer f.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := f.Do(pageRequest); err != nil {
				panic(fmt.Sprintf("benchmark: fleet.Do: %v", err))
			}
		}
		return time.Since(t0)
	})
	m["fleet.gateway_ns"] = single("ns",
		m["fleet.do_native_ns"].Value-m["webserver.native_req_ns.connect"].Value, 1)
}
