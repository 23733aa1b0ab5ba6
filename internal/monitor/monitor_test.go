package monitor

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
)

func newTestMonitor(t *testing.T, variants int) (*Monitor, *kernel.Kernel) {
	t.Helper()
	k := kernel.New()
	procs := make([]*kernel.Proc, variants)
	for v := range procs {
		procs[v] = k.NewProc(uint64(0x1000_0000*(v+1)), uint64(0x7000_0000*(uint64(v)+1)))
	}
	return New(k, procs, Config{MaxThreads: 8, RingCap: 32}), k
}

func openCall(path string, flags uint64) kernel.Call {
	return kernel.Call{Nr: kernel.SysOpen, Args: [6]uint64{flags}, Data: []byte(path)}
}

func TestClassifyRouting(t *testing.T) {
	cases := []struct {
		nr   kernel.Sysno
		want class
	}{
		{kernel.SysSchedYield, class{}},
		{kernel.SysFutex, class{}},
		{kernel.SysWrite, class{monitored: true, ordered: true, replicated: true, sensitive: true}},
		{kernel.SysRead, class{monitored: true, replicated: true, blocking: true}},
		{kernel.SysBrk, class{monitored: true, ordered: true, perVariant: true}},
		{kernel.SysClone, class{monitored: true, ordered: true, perVariant: true, sensitive: true}},
		{kernel.SysGettimeofday, class{monitored: true, ordered: true, replicated: true}},
		{kernel.SysGetpid, class{monitored: true, ordered: true, replicated: true, pure: true}},
		{kernel.SysPread, class{monitored: true, ordered: true, replicated: true, pure: true}},
		{kernel.SysLseek, class{monitored: true, ordered: true, replicated: true}},
	}
	for _, c := range cases {
		if got := classify(c.nr); got != c.want {
			t.Errorf("classify(%v) = %+v, want %+v", c.nr, got, c.want)
		}
	}
}

func TestArgMaskAddressArgsExcluded(t *testing.T) {
	if argMask(kernel.SysBrk) != 0 {
		t.Error("brk address must be masked")
	}
	if argMask(kernel.SysMmap)&1 != 0 {
		t.Error("mmap addr hint must be masked")
	}
	if argMask(kernel.SysWrite) != 0x3f {
		t.Error("write args must be fully compared")
	}
}

func TestMasterSlaveReplication(t *testing.T) {
	m, k := newTestMonitor(t, 2)
	k.WriteFile("/in", []byte("payload"))

	var slaveData []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // slave thread 0
		defer wg.Done()
		fd := m.Invoke(1, 0, openCall("/in", kernel.ORdonly))
		r := m.Invoke(1, 0, kernel.Call{Nr: kernel.SysRead, Args: [6]uint64{fd.Val, 64}})
		slaveData = r.Data
	}()
	fd := m.Invoke(0, 0, openCall("/in", kernel.ORdonly))
	if !fd.Ok() {
		t.Fatalf("master open: %v", fd.Err)
	}
	r := m.Invoke(0, 0, kernel.Call{Nr: kernel.SysRead, Args: [6]uint64{fd.Val, 64}})
	wg.Wait()
	if string(r.Data) != "payload" || string(slaveData) != "payload" {
		t.Fatalf("master %q / slave %q", r.Data, slaveData)
	}
	if m.Divergence() != nil {
		t.Fatalf("unexpected divergence: %v", m.Divergence())
	}
	// The file must have been read once by the kernel for the master only;
	// the slave's fd table must not even hold the descriptor (replication,
	// not re-execution).
	if m.Syscalls(0) != 2 || m.Syscalls(1) != 2 {
		t.Fatalf("syscall counts %d/%d, want 2/2", m.Syscalls(0), m.Syscalls(1))
	}
}

func TestDivergenceOnArgMismatch(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	var div any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { div = recover() }()
		m.Invoke(1, 0, kernel.Call{Nr: kernel.SysLseek, Args: [6]uint64{3, 99, 0}})
	}()
	func() {
		defer func() { _ = recover() }() // master also unwinds on divergence
		m.Invoke(0, 0, kernel.Call{Nr: kernel.SysLseek, Args: [6]uint64{3, 0, 0}})
	}()
	wg.Wait()
	if div != ErrKilled {
		t.Fatalf("slave recovered %v, want ErrKilled", div)
	}
	d := m.Divergence()
	if d == nil || !strings.Contains(d.Reason, "argument") {
		t.Fatalf("divergence = %v", d)
	}
	if d.Variant != 1 || d.Tid != 0 {
		t.Fatalf("divergence location = variant %d tid %d", d.Variant, d.Tid)
	}
}

func TestDivergenceOnPayloadMismatch(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = recover() }()
		m.Invoke(1, 0, kernel.Call{Nr: kernel.SysWrite, Args: [6]uint64{3}, Data: []byte("EVIL")})
	}()
	func() {
		defer func() { _ = recover() }() // lockstep barrier: master panics on divergence
		m.Invoke(0, 0, kernel.Call{Nr: kernel.SysWrite, Args: [6]uint64{3}, Data: []byte("good")})
	}()
	wg.Wait()
	d := m.Divergence()
	if d == nil || d.Reason != "payload mismatch" {
		t.Fatalf("divergence = %v", d)
	}
}

func TestSyscallOrderingAcrossThreads(t *testing.T) {
	// Two master threads issue ordered calls; the slave threads must be
	// able to consume them regardless of their own scheduling. This is
	// the §4.1 ordering-clock mechanism end to end.
	m, _ := newTestMonitor(t, 2)
	const per = 50
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(2)
		go func(tid int) { // master thread
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Invoke(0, tid, kernel.Call{Nr: kernel.SysGetpid})
			}
		}(tid)
		go func(tid int) { // slave thread
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Invoke(1, tid, kernel.Call{Nr: kernel.SysGetpid})
			}
		}(tid)
	}
	wg.Wait()
	if m.Divergence() != nil {
		t.Fatalf("divergence: %v", m.Divergence())
	}
	if m.Syscalls(0) != 2*per || m.Syscalls(1) != 2*per {
		t.Fatalf("counts %d/%d", m.Syscalls(0), m.Syscalls(1))
	}
}

func TestMVEEAwareAnsweredByMonitor(t *testing.T) {
	m, _ := newTestMonitor(t, 3)
	for v := 0; v < 3; v++ {
		r := m.Invoke(v, 0, kernel.Call{Nr: kernel.SysMVEEAware})
		if !r.Ok() || r.Val != uint64(v) {
			t.Fatalf("variant %d: mvee_aware = %+v", v, r)
		}
	}
}

func TestUnmonitoredCallsBypassRendezvous(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	// sched_yield by a slave alone must not block waiting for the master.
	r := m.Invoke(1, 0, kernel.Call{Nr: kernel.SysSchedYield})
	if !r.Ok() {
		t.Fatalf("yield: %v", r.Err)
	}
	if m.Syscalls(1) != 0 {
		t.Fatal("unmonitored call counted as monitored")
	}
}

func TestKillIsIdempotentAndFirstDivergenceWins(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	d1 := &Divergence{Variant: 1, Reason: "first"}
	d2 := &Divergence{Variant: 1, Reason: "second"}
	m.Kill(d1)
	m.Kill(d2)
	if got := m.Divergence(); got != d1 {
		t.Fatalf("divergence = %v, want first", got)
	}
	if !m.Killed() {
		t.Fatal("not killed")
	}
}

func TestOnKillHooksRunOnce(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	n := 0
	m.OnKill(func() { n++ })
	m.Kill(nil)
	m.Kill(nil)
	if n != 1 {
		t.Fatalf("hook ran %d times", n)
	}
}

func TestInvokeAfterKillPanics(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	m.Kill(nil)
	defer func() {
		if recover() != ErrKilled {
			t.Fatal("Invoke after kill did not panic ErrKilled")
		}
	}()
	m.Invoke(0, 0, kernel.Call{Nr: kernel.SysGetpid})
}

func TestThreadExitMismatchIsDivergence(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	// Master records one call then exit; slave exits immediately. Both
	// sides run concurrently because the lockstep barrier makes the
	// master wait for the slave's digest.
	var div any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { div = recover() }()
		m.ThreadExit(1, 0)
	}()
	func() {
		defer func() { _ = recover() }()
		m.Invoke(0, 0, kernel.Call{Nr: kernel.SysGetpid})
		m.ThreadExit(0, 0)
	}()
	wg.Wait()
	if div != ErrKilled {
		t.Fatalf("recovered %v", div)
	}
	if d := m.Divergence(); d == nil || !strings.Contains(d.Reason, "exited") {
		t.Fatalf("divergence = %v", d)
	}
}

func TestPerVariantExecutionOfMemoryCalls(t *testing.T) {
	m, _ := newTestMonitor(t, 2)
	var slaveAddr uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slaveAddr = m.Invoke(1, 0, kernel.Call{Nr: kernel.SysMmap, Args: [6]uint64{0, 4096}}).Val
	}()
	masterAddr := m.Invoke(0, 0, kernel.Call{Nr: kernel.SysMmap, Args: [6]uint64{0, 4096}}).Val
	wg.Wait()
	if m.Divergence() != nil {
		t.Fatalf("divergence: %v", m.Divergence())
	}
	if masterAddr == slaveAddr {
		t.Fatal("mmap returned identical addresses: not executed per variant")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyStrictLockstep.String() != "strict-lockstep" ||
		PolicySecuritySensitive.String() != "security-sensitive" {
		t.Fatal("policy strings wrong")
	}
}

func TestDivergenceErrorRendering(t *testing.T) {
	d := &Divergence{Variant: 2, Tid: 1, Reason: "payload mismatch",
		Master: "write(...)", Slave: "write(...)"}
	if !strings.Contains(d.Error(), "variant 2") || !strings.Contains(d.Error(), "payload mismatch") {
		t.Fatalf("Error() = %q", d.Error())
	}
}
