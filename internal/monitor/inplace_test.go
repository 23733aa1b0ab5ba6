package monitor

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/kernel"
)

// Layout guard: every word a variant writes on every call sits on a line no
// other variant (or no other thread of it) writes. The clocks are the
// regression this pins: as separately allocated 8-byte Lamports they were
// tiny allocations packed into one 16-byte-granular block, so the master's
// and the slave's passTurn invalidated each other's line on every ordered
// call — and which clocks shared a line changed with allocation order.
func TestHotWordsDoNotShareLines(t *testing.T) {
	const line = 64
	for _, variants := range []int{2, 3} {
		m, _ := newTestMonitor(t, variants)
		for v := 1; v < variants; v++ {
			a, b := uintptr(unsafe.Pointer(&m.clocks[v-1])), uintptr(unsafe.Pointer(&m.clocks[v]))
			if b-a < line {
				t.Errorf("%d variants: clocks[%d] and clocks[%d] are %d bytes apart, want >= %d", variants, v-1, v, b-a, line)
			}
		}
	}
	m, _ := newTestMonitor(t, 2)
	for name, size := range map[string]uintptr{
		"clocks":    unsafe.Sizeof(m.clocks[0]),
		"slaveCons": unsafe.Sizeof(slaveCons{}),
		"counter":   unsafe.Sizeof(counter{}),
	} {
		if size%line != 0 {
			t.Errorf("%s elements are %d bytes: adjacent ones share a line", name, size)
		}
	}
}

// TestRecordsReadInPlaceSurviveRingLaps is the slot-lifetime regression for
// reading records where they lie. At RingCap 2 and 4 the master laps its
// ring every other call while two slaves still hold pointers into it, so a
// cursor released one record early, or an arena slot recycled one lap early,
// shows up — as a data race under -race (CI runs this with it), and without
// it as the wrong bytes: every iteration carries different contents through
// the same guest buffers, the spilled write payload is compared by the
// monitor against each slave's own (a mismatch is a divergence), and each
// slave checks the Ret.Data it was handed for both Call.Buf receives after
// the master's guest has moved on and cleared its buffers. The tape is
// TestBatchedReplicationMatchesSequential's: a 96-byte write (past
// InlinePayload, so through the arenas) read back as two Buf-sized halves.
func TestRecordsReadInPlaceSurviveRingLaps(t *testing.T) {
	const iters = 300
	for _, ringCap := range []int{2, 4} {
		for _, policy := range []Policy{PolicyStrictLockstep, PolicySecuritySensitive} {
			for _, batched := range []bool{false, true} {
				t.Run(fmt.Sprintf("cap%d/%v/batched=%v", ringCap, policy, batched), func(t *testing.T) {
					k := kernel.New()
					procs := make([]*kernel.Proc, 3)
					for v := range procs {
						procs[v] = k.NewProc(uint64(0x1000_0000*(v+1)), uint64(0x7000_0000*(uint64(v)+1)))
					}
					m := New(k, procs, Config{MaxThreads: 2, RingCap: ringCap, Policy: policy})
					drive := func(v int) {
						defer func() {
							if r := recover(); r != nil && r != ErrKilled {
								panic(r)
							}
						}()
						pr := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPipe2})
						body := make([]byte, 96)
						bufA, bufB := make([]byte, 48), make([]byte, 48)
						calls := []kernel.Call{
							{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}, Data: body},
							{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 48}, Buf: bufA},
							{Nr: kernel.SysGetpid},
							{Nr: kernel.SysRead, Args: [6]uint64{pr.Val, 48}, Buf: bufB},
						}
						rets := make([]kernel.Ret, len(calls))
						for i := 0; i < iters; i++ {
							for j := range body {
								body[j] = byte(i*7 + j)
							}
							if batched {
								m.InvokeBatchOn(v, 0, m.procs[v], calls, rets)
							} else {
								for c := range calls {
									rets[c] = m.Invoke(v, 0, calls[c])
								}
							}
							if !bytes.Equal(rets[1].Data, body[:48]) || !bytes.Equal(rets[3].Data, body[48:]) {
								t.Errorf("variant %d iteration %d: received %x | %x, want %x", v, i, rets[1].Data, rets[3].Data, body)
								m.Kill(nil)
								return
							}
							// The guest reuses its receive buffers once the calls return.
							clear(bufA)
							clear(bufB)
						}
						m.ThreadExit(v, 0)
					}
					var wg sync.WaitGroup
					for v := range procs {
						wg.Add(1)
						go func(v int) {
							defer wg.Done()
							drive(v)
						}(v)
					}
					wg.Wait()
					if d := m.Divergence(); d != nil {
						t.Fatalf("diverged: %v", d)
					}
					if got := m.Syscalls(2); got != 1+4*iters {
						t.Fatalf("slave 2 made %d monitored calls, want %d", got, 1+4*iters)
					}
				})
			}
		}
	}
}
