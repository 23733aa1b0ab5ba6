package webserver

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/kernel"
)

// TestServingSyscallsPerRequest pins what each serving mode executes per
// request: the master's per-sysno counts over a fixed GET / load. A
// refactor of the serving path that adds, drops or duplicates a call on the
// request path changes one of these counts.
func TestServingSyscallsPerRequest(t *testing.T) {
	const conns, perConn = 4, 10
	// The listener probe Start sends is one GET / on its own connection,
	// served like any other request.
	const probe = 1
	type calls struct{ accept, recv, sendfile, close int }
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(resp int, cfg Config) calls
	}{
		// Setup: the page file's writer close; one accept fails when the
		// listener closes.
		{"thread-pool", Config{Port: 8300, PoolThreads: 4, InstrumentCustomSync: true}, func(resp int, _ Config) calls {
			return calls{resp + probe + 1, resp + probe, resp + probe, resp + probe + 1}
		}},
		// Keep-alive: one accept per connection, and one EOF recv and close
		// when each client hangs up; plus the page file's writer close.
		{"evented", Config{Port: 8301, Evented: true}, func(resp int, _ Config) calls {
			c := conns + probe
			return calls{c, resp + probe + c, resp + probe, c + 1}
		}},
		// Setup: the page file's writer close, the parent's two
		// readiness-pipe closes and the epoch file's close; per worker its
		// two pipe closes and the published-epoch read's close at exit, and
		// one failed accept per worker thread.
		{"prefork", Config{Port: 8302, Prefork: true, Workers: 3}, func(resp int, cfg Config) calls {
			return calls{resp + probe + cfg.Workers*cfg.WorkerThreads, resp + probe, resp + probe, resp + probe + 4 + 3*cfg.Workers}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.fill()
			s, stop, err := Start(core.Options{
				Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true,
				Seed: 77, MaxThreads: 64, Telemetry: true,
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Prefork {
				// A worker reads the published epoch when it exits; wait
				// for it so that read always finds the file.
				awaitEpoch(t, s.Kernel(), 0)
			}
			load := GenerateLoad(s.Kernel(), cfg.Port, conns, perConn)
			res := stop()
			if res.Divergence != nil {
				t.Fatalf("diverged: %v", res.Divergence)
			}
			if load.Errors > 0 || load.Responses != conns*perConn {
				t.Fatalf("load: %+v", load)
			}
			m := s.Telemetry().Matrix
			n := func(nr kernel.Sysno) int { return int(m.Count(0, nr)) }
			got := calls{n(kernel.SysAccept), n(kernel.SysRecv), n(kernel.SysSendfile), n(kernel.SysClose)}
			poll := n(kernel.SysPoll)
			t.Logf("%d responses: %+v, poll %d (%.2f records/req)",
				load.Responses, got, poll, float64(res.Syscalls)/float64(load.Responses))
			if want := tc.want(load.Responses, cfg); got != want {
				t.Errorf("master executed %+v, want %+v", got, want)
			}
			// The evented loop's poll traffic stays inside TestNginxHarness's
			// bill of fewer than 4 records per request.
			if recs := float64(got.recv+got.sendfile+poll) / float64(load.Responses); cfg.Evented && recs >= 4 {
				t.Errorf("recv+sendfile+poll = %.2f records/req, want < 4", recs)
			}
		})
	}
}

// TestServingDoesNotAllocate holds steady-state serving to 0 allocations
// per request, natively and under the MVEE, in the evented mode over one
// keep-alive connection and in the prefork and thread-pool modes with a
// connection per request. The loops reuse every buffer they touch: the
// pool's accept queue keeps its array, a guest futex wait queues the
// thread's own waiter, poll writes its revents into the event loop's own
// buffer and each thread recvs into its own (Call.Buf), and respond builds
// /count in per-thread scratch. One op
// is ten requests on a client that reuses its buffers — nine for the page
// and one for /count — because AllocsPerRun reports whole allocations per
// op.
func TestServingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts by design; alloc bound holds without -race")
	}
	page, count := []byte("GET / HTTP/1.1"), []byte("GET /count HTTP/1.1")
	for _, mode := range []struct {
		name      string
		cfg       Config
		keepAlive bool
	}{
		{"evented", Config{Port: 8310, Evented: true}, true},
		{"prefork", Config{Port: 8311, Prefork: true, Workers: 2}, false},
		{"pool", Config{Port: 8312, PoolThreads: 2}, false},
	} {
		for _, variants := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/variants=%d", mode.name, variants), func(t *testing.T) {
				cfg := mode.cfg
				cfg.fill()
				s, stop, err := Start(core.Options{
					Variants: variants, Agent: agent.WallOfClocks, ASLR: true, DCL: true,
					Seed: 77, MaxThreads: 64, Telemetry: true,
				}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				k := s.Kernel()
				pageLen := len(responseHeader) + cfg.PageSize
				buf := make([]byte, 2*pageLen)
				var cc kernel.ClientConn
				open := false
				failed := "" // the first bad exchange; a constant, so recording it allocates nothing
				// request sends a page or a /count request and reads its whole
				// response: pageLen bytes for the page, one read (one writev)
				// for /count.
				request := func(isCount bool) {
					if !open {
						c, errno := k.Connect(cfg.Port)
						if errno != kernel.OK {
							failed = "connect failed"
							return
						}
						cc, open = c, true
					}
					line := page
					if isCount {
						line = count
					}
					if _, err := cc.Write(line); err != nil {
						failed = "write failed"
						return
					}
					got := 0
					for got == 0 || !isCount && got < pageLen {
						n, err := cc.Read(buf[got:])
						if err != nil || n == 0 {
							failed = "short response"
							return
						}
						got += n
					}
					if isCount && !bytes.HasPrefix(buf[:got], []byte("count=")) || !isCount && got != pageLen {
						failed = "wrong response"
					}
					if !mode.keepAlive {
						cc.Close()
						open = false
					}
				}
				op := func() {
					for i := 0; i < 9; i++ {
						request(false)
					}
					request(true)
				}
				for i := 0; i < 300; i++ {
					op() // past several ring laps: every arena slot and pool is grown
				}
				allocs := testing.AllocsPerRun(50, op)
				if open {
					cc.Close()
				}
				res := stop()
				if failed != "" {
					t.Fatal(failed)
				}
				if res.Divergence != nil {
					t.Fatalf("diverged: %v", res.Divergence)
				}
				if allocs != 0 {
					t.Fatalf("serving allocates %.0f per 10 requests, want 0", allocs)
				}
			})
		}
	}
}
