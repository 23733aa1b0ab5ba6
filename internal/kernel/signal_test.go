package kernel

import "testing"

// Unit coverage for the EINTR surfaces of the blocking primitives: the
// interrupt predicate only bites when the call would otherwise sleep, and
// a write that already transferred bytes returns the short count with NO
// error (POSIX partial-write semantics — (n>0, EINTR) would make the
// standard retry idiom resend and duplicate bytes).

// signalledBlocker is the blocker of a thread whose process has a
// deliverable signal pending: every sleep it would enter is interrupted.
func signalledBlocker() blocker {
	p := NewProc(1, NewAddressSpace(0, 0))
	p.sendSignal(SIGTERM)
	return p.blk(0, 0)
}

func TestPipeWriteEINTROnlyAtZeroProgress(t *testing.T) {
	p := newPipe()
	gen := p.generation()
	always := signalledBlocker()

	// A write that fits completes fully even with a signal pending.
	if n, errno := p.send(gen, bytesSource(make([]byte, 2048)), always); errno != OK || n != 2048 {
		t.Fatalf("fitting write = (%d, %v), want (2048, OK)", n, errno)
	}
	// Fill to capacity, then write more: partial progress → short count, OK.
	if n, errno := p.send(gen, bytesSource(make([]byte, pipeBufSize)), always); errno != OK || n != pipeBufSize-2048 {
		t.Fatalf("partial write = (%d, %v), want (%d, OK)", n, errno, pipeBufSize-2048)
	}
	// Full pipe, zero progress → EINTR.
	if n, errno := p.send(gen, bytesSource([]byte("x")), always); errno != EINTR || n != 0 {
		t.Fatalf("blocked write = (%d, %v), want (0, EINTR)", n, errno)
	}
}

func TestPipeReadEINTRBeforeBlocking(t *testing.T) {
	p := newPipe()
	gen := p.generation()
	always := signalledBlocker()

	// Empty pipe + pending signal: EINTR, deterministically, before any wait.
	if _, errno := p.recv(gen, nil, 16, always); errno != EINTR {
		t.Fatalf("empty read = %v, want EINTR", errno)
	}
	// Data pending beats the signal (poll-with-ready-fds semantics).
	p.send(gen, bytesSource([]byte("data")), blocker{})
	if out, errno := p.recv(gen, nil, 16, always); errno != OK || string(out) != "data" {
		t.Fatalf("ready read = (%q, %v), want (\"data\", OK)", out, errno)
	}
}

func TestTakeSignalOrderAndMasks(t *testing.T) {
	p := NewProc(1, NewAddressSpace(0, 0))
	if got := p.TakeSignal(); got != 0 {
		t.Fatalf("TakeSignal on empty set = %d", got)
	}
	p.sendSignal(SIGTERM)
	p.sendSignal(SIGINT)
	if got := p.TakeSignal(); got != SIGINT {
		t.Fatalf("first delivery = %d, want SIGINT (lowest wins)", got)
	}
	if got := p.TakeSignal(); got != SIGTERM {
		t.Fatalf("second delivery = %d, want SIGTERM", got)
	}
	// SIGCHLD is default-ignored: discarded at send time.
	p.sendSignal(SIGCHLD)
	if got := p.TakeSignal(); got != 0 {
		t.Fatalf("default-ignored SIGCHLD delivered as %d", got)
	}
	// A blocked signal stays pending but undeliverable; AckSignal clears it.
	p.sigBlocked.Store(sigBit(SIGUSR1))
	p.sendSignal(SIGUSR1)
	if p.signalPending() {
		t.Fatal("blocked signal reported deliverable")
	}
	p.AckSignal(SIGUSR1)
	p.sigBlocked.Store(0)
	if p.signalPending() {
		t.Fatal("acked signal still pending")
	}
}
