package monitor

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
)

// Hard assertion of the replication hot path's 0 allocs/op invariant
// (ROADMAP): the test fails the suite outright if a steady-state monitored
// call allocates — in either the master or the slave, since
// testing.AllocsPerRun counts process-wide mallocs while the mirrored
// slave goroutine runs the same calls concurrently.
//
// The matrix covers both policies, payload-free (getpid) and
// inline-payload (64-byte pwrite) calls, telemetry off
// and on: the observability plane (counter matrix, sampled latency,
// flight-recorder appends) must not cost a single allocation — plus the
// storage paths of the replication step on both of its callers: a payload
// past InlinePayload (the 256-byte row), which exercises only the digest
// spill (an effectful call's live record carries no input payload, see
// place), a stat whose 16-byte path a pure call's record carries inline for
// the slave's own check, a stream read whose Call.Buf-aliased result goes
// through the output arena and back out into the slave's Buf, a poll whose
// revents land in each variant's own Buf the same way, and an
// InvokeBatchOn run of 8 that mixes the spill and the Buf read into one
// reserved run of the ring. Every cell also runs with the deadlock detector
// armed (detector=armed): the master proc carries a live BlockBoard with a
// registered thread and its watcher running, as a DetectDeadlocks session
// arms it, and armed but idle — the steady state of a healthy server — it
// must not cost an allocation either. Parking keeps this
// invariant because futex.Parker parks on sync.Cond, which recycles its
// queue nodes — even under AllocsPerRun's GOMAXPROCS=1, where every
// rendezvous escalates through yields and may park.
func TestReplicationHotPathZeroAllocs(t *testing.T) {
	policies := []struct {
		name   string
		policy Policy
	}{
		{"strict", PolicyStrictLockstep},
		{"relaxed", PolicySecuritySensitive},
	}
	// A shape's setup issues variant v's preparatory calls (identically in
	// every variant) and returns the measured operation.
	type shape struct {
		name  string
		setup func(t *testing.T, m *Monitor, v int) func()
	}
	pwrite := func(n int) func(t *testing.T, m *Monitor, v int) func() {
		return func(t *testing.T, m *Monitor, v int) func() {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
			fd := m.Invoke(v, 0, openCall("/alloc-test", kernel.OCreat|kernel.ORdwr)).Val
			call := kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{fd, 0}, Data: data}
			// Pre-size so the measured pwrites never grow the inode.
			m.Invoke(v, 0, call)
			return func() { m.Invoke(v, 0, call) }
		}
	}
	shapes := []shape{
		{"payload-0", func(t *testing.T, m *Monitor, v int) func() {
			return func() { m.Invoke(v, 0, kernel.Call{Nr: kernel.SysGetpid}) }
		}},
		{fmt.Sprintf("payload-%d", InlinePayload), pwrite(InlinePayload)},
		{fmt.Sprintf("payload-%d", 4*InlinePayload), pwrite(4 * InlinePayload)},
		{"stat-16", func(t *testing.T, m *Monitor, v int) func() {
			path := "/alloc-test/stat"
			m.Invoke(v, 0, openCall(path, kernel.OCreat|kernel.ORdwr))
			call := kernel.Call{Nr: kernel.SysStat, Data: []byte(path)}
			return func() { m.Invoke(v, 0, call) }
		}},
		{"buf-out", func(t *testing.T, m *Monitor, v int) func() {
			// Pipes are stream objects: a Buf-carrying read fills the
			// caller's buffer in place and the result aliases it.
			pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
			buf := make([]byte, 64)
			msg := []byte("payload")
			return func() {
				m.Invoke(v, 0, kernel.Call{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}, Data: msg})
				m.Invoke(v, 0, kernel.Call{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 64}, Buf: buf})
			}
		}},
		{"poll-buf", func(t *testing.T, m *Monitor, v int) func() {
			// A pipe's write end is always writable: the poll never parks,
			// and its revents array is written into each variant's own Buf.
			pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
			fds := make([]byte, kernel.PollFDSize)
			kernel.EncodePollFD(fds, 0, int(pr.Val2), kernel.PollOut)
			buf := make([]byte, kernel.PollFDSize)
			call := kernel.Call{Nr: kernel.SysPoll, Args: [6]uint64{1, 0}, Data: fds, Buf: buf}
			return func() {
				r := m.Invoke(v, 0, call)
				if r.Val != 1 || len(r.Data) != len(buf) || &r.Data[0] != &buf[0] {
					t.Errorf("variant %d: poll returned %d ready, Data not aliasing its own Buf", v, r.Val)
				}
			}
		}},
		{"batch-8", func(t *testing.T, m *Monitor, v int) func() {
			// Each run of 4 drains exactly what it wrote, so the pipe never
			// fills: one spilled write, read back as two Buf-sized halves.
			pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
			buf := make([]byte, InlinePayload)
			big := make([]byte, 2*InlinePayload)
			run := []kernel.Call{
				{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}, Data: big},
				{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, InlinePayload}, Buf: buf},
				{Nr: kernel.SysGetpid},
				{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, InlinePayload}, Buf: buf},
			}
			calls := append(append([]kernel.Call(nil), run...), run...)
			rets := make([]kernel.Ret, len(calls))
			return func() { m.InvokeBatchOn(v, 0, m.procs[v], calls, rets) }
		}},
	}
	for _, pc := range policies {
		for _, sh := range shapes {
			for _, tel := range []bool{false, true} {
				for _, armed := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/telemetry=%v", pc.name, sh.name, tel)
					if armed {
						name += "/detector=armed"
					}
					t.Run(name, func(t *testing.T) {
						k := kernel.New()
						procs := []*kernel.Proc{
							k.NewProc(0x1000_0000, 0x7000_0000),
							k.NewProc(0x2000_0000, 0x7100_0000),
						}
						if armed {
							board := kernel.NewBlockBoard(2, func([]kernel.BlockedSite) {})
							defer board.Close()
							procs[0].SetBlockBoard(board)
							board.ThreadStart(0)
							defer board.ThreadExit(0)
						}
						const ringCap = 256
						m := New(k, procs, Config{MaxThreads: 2, RingCap: ringCap, Policy: pc.policy, Telemetry: tel})
						// Warm up past two full ring laps, so every arena slot a
						// steady-state record can land in has been grown.
						const warmup, runs = 2 * ringCap, 200
						// AllocsPerRun invokes f runs+1 times (one untimed warmup
						// call); the slave mirrors the exact total or the last
						// rendezvous would hang.
						total := warmup + runs + 1
						done := make(chan struct{})
						go func() {
							defer close(done)
							one := sh.setup(t, m, 1)
							for i := 0; i < total; i++ {
								one()
							}
						}()
						one := sh.setup(t, m, 0)
						for i := 0; i < warmup; i++ {
							one()
						}
						allocs := testing.AllocsPerRun(runs, one)
						<-done
						if d := m.Divergence(); d != nil {
							t.Fatalf("diverged: %v", d)
						}
						if allocs != 0 {
							t.Fatalf("replication hot path allocates %.2f/op, want 0", allocs)
						}
					})
				}
			}
		}
	}
}
