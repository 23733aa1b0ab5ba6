package monitor

import (
	"strings"
	"testing"

	"repro/internal/kernel"
)

// The enum-completeness guard: every Sysno in [SysOpen, SysnoMax) must
// have a name, a DELIBERATE monitor classification, and an argument-mask
// decision, all recorded in the table below. Before this test existed, an
// appended syscall silently stringified as "sys#N" and fell into
// classify's default case with nothing tripping — the table forces every
// future append to state its routing decisions explicitly (and keeps the
// trace wire format honest: Sysno values are recorded-trace currency, so
// the walk also locks the enum's order).
func TestSysnoSurfaceIsComplete(t *testing.T) {
	// pure is its own column, decided row by row: a pure call runs in the
	// master before its slaves have arrived, so every true below is a claim
	// that the call changes no kernel state and reads no clock.
	type decision struct {
		name string
		cls  class
		pure bool
		mask uint8
	}
	const all = uint8(0x3f)
	want := map[kernel.Sysno]decision{
		kernel.SysOpen:      {"open", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysClose:     {"close", class{monitored: true, ordered: true, replicated: true}, false, all},
		kernel.SysRead:      {"read", class{monitored: true, replicated: true, blocking: true}, false, all}, // consumes data
		kernel.SysWrite:     {"write", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysPread:     {"pread", class{monitored: true, ordered: true, replicated: true}, true, all},
		kernel.SysPwrite:    {"pwrite", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysLseek:     {"lseek", class{monitored: true, ordered: true, replicated: true}, false, all}, // moves the offset
		kernel.SysStat:      {"stat", class{monitored: true, ordered: true, replicated: true}, true, all},
		kernel.SysUnlink:    {"unlink", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysDup:       {"dup", class{monitored: true, ordered: true, replicated: true}, false, all},
		kernel.SysPipe2:     {"pipe2", class{monitored: true, ordered: true, replicated: true}, false, all},
		kernel.SysFtruncate: {"ftruncate", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysBrk:       {"brk", class{monitored: true, ordered: true, perVariant: true}, false, 0},
		kernel.SysMmap:      {"mmap", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, 1 << 1},
		kernel.SysMunmap:    {"munmap", class{monitored: true, ordered: true, perVariant: true}, false, 1<<1 | 1<<2},
		kernel.SysMprotect:  {"mprotect", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, 1<<1 | 1<<2},
		kernel.SysClone:     {"clone", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, 0},
		kernel.SysExit:      {"exit", class{monitored: true, ordered: true, perVariant: true}, false, all},
		// Clock reads are effect-free but never pure (§5.4): see below.
		kernel.SysGettimeofday: {"gettimeofday",
			class{monitored: true, ordered: true, replicated: true}, false, all},
		kernel.SysClockGettime: {"clock_gettime",
			class{monitored: true, ordered: true, replicated: true}, false, all},
		kernel.SysNanosleep:  {"nanosleep", class{monitored: true, replicated: true, blocking: true}, false, 1 << 0},
		kernel.SysSchedYield: {"sched_yield", class{}, false, all},
		kernel.SysGetpid:     {"getpid", class{monitored: true, ordered: true, replicated: true}, true, all},
		kernel.SysGettid:     {"gettid", class{}, false, all},
		kernel.SysSocket:     {"socket", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysBind:       {"bind", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysListen:     {"listen", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysAccept:     {"accept", class{monitored: true, replicated: true, blocking: true}, false, all},
		kernel.SysConnect:    {"connect", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysSend:       {"send", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysRecv:       {"recv", class{monitored: true, replicated: true, blocking: true}, false, all}, // consumes data
		kernel.SysShutdown:   {"shutdown", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysFutex:      {"futex", class{}, false, all},
		kernel.SysMVEEAware:  {"mvee_aware", class{monitored: true, ordered: true, perVariant: true}, false, all},
		kernel.SysPoll:       {"poll", class{monitored: true, replicated: true, blocking: true}, false, all},
		kernel.SysFork:       {"fork", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, 0},
		kernel.SysWaitpid:    {"waitpid", class{monitored: true, replicated: true, blocking: true, sensitive: true}, false, all},
		kernel.SysKill:       {"kill", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, all},
		kernel.SysSigaction:  {"sigaction", class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, all},
		kernel.SysSigprocmask: {"sigprocmask",
			class{monitored: true, ordered: true, perVariant: true, sensitive: true}, false, all},
		kernel.SysThreadExit: {"thread_exit",
			class{monitored: true, ordered: true, perVariant: true}, false, all},
		// The vectored/zero-copy transfers are writes: ordered, replicated,
		// sensitive, with every argument compared (writev's iovec count in
		// Args[1]; sendfile's fd pair, offset, and byte count).
		kernel.SysWritev:   {"writev", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
		kernel.SysSendfile: {"sendfile", class{monitored: true, ordered: true, replicated: true, sensitive: true}, false, all},
	}

	n := 0
	for s := kernel.SysOpen; s < kernel.SysnoMax; s++ {
		n++
		d, ok := want[s]
		if !ok {
			t.Errorf("Sysno %d (%v) has no entry in the guard table: a new syscall "+
				"must record its name, classify case, and argMask decision here", uint32(s), s)
			continue
		}
		if got := s.String(); got != d.name {
			t.Errorf("%v: String() = %q, want %q (missing sysnoNames entry?)", s, got, d.name)
		}
		if strings.HasPrefix(s.String(), "sys#") {
			t.Errorf("Sysno %d stringifies as %q — add it to sysnoNames", uint32(s), s)
		}
		wantCls := d.cls
		wantCls.pure = d.pure
		if got := classify(s); got != wantCls {
			t.Errorf("%v: classify = %+v, want %+v", s, got, wantCls)
		}
		if got := argMask(s); got != d.mask {
			t.Errorf("%v: argMask = %#x, want %#x", s, got, d.mask)
		}
	}
	if n != len(want) {
		t.Errorf("guard table has %d entries for %d enum members — remove stale rows", len(want), n)
	}
	// Internal-consistency sweeps over the classification itself:
	for s := kernel.SysOpen; s < kernel.SysnoMax; s++ {
		cls := classify(s)
		if cls.ordered && cls.blocking {
			t.Errorf("%v is both ordered and blocking: a blocking call must not sit "+
				"inside the ordering critical section (§4.1 Limitations)", s)
		}
		if cls.replicated && cls.perVariant {
			t.Errorf("%v is both replicated and per-variant", s)
		}
		if (cls.ordered || cls.replicated || cls.perVariant || cls.blocking) && !cls.monitored {
			t.Errorf("%v has routing flags but is not monitored: %+v", s, cls)
		}
		// A pure call executes in the master before validation, inside the
		// ordered section, and its result is replicated only once every
		// digest passed: that needs a ticket (ordered), one execution
		// (replicated, not per-variant), a kernel that returns (not
		// blocking), and no argument the relaxed policy must compare before
		// anything runs (not sensitive).
		if cls.pure && !(cls.monitored && cls.ordered && cls.replicated &&
			!cls.blocking && !cls.perVariant && !cls.sensitive) {
			t.Errorf("%v is pure but not monitored+ordered+replicated, non-blocking, "+
				"non-per-variant and non-sensitive: %+v", s, cls)
		}
	}
	// §5.4: the timestamp covert channel is the master reading the clock
	// after every variant has arrived, so the reading includes the slowest
	// slave's delay. A clock read executed before the slaves arrive would
	// carry only the master's, so clock reads are never pure.
	for _, s := range []kernel.Sysno{kernel.SysGettimeofday, kernel.SysClockGettime} {
		if classify(s).pure {
			t.Errorf("%v is pure: a clock read must wait for every variant (§5.4)", s)
		}
	}
	// A hypothetical appended syscall (SysnoMax itself) must stringify as
	// sys#N and fall into the documented default class — the behaviour the
	// guard exists to catch.
	if got := kernel.SysnoMax.String(); !strings.HasPrefix(got, "sys#") {
		t.Errorf("out-of-range Sysno stringified as %q", got)
	}
	if got := classify(kernel.SysnoMax); !(got.monitored && got.ordered && got.perVariant) {
		t.Errorf("default classify changed: %+v", got)
	}
}
