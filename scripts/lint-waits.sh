#!/usr/bin/env bash
# The replication plane's wait protocol is written once (DESIGN §12):
# futex.Parker's Prepare/Park live in ring.Await, scheduler yields in
# ring.Backoff. The guest futex's one sleep is (*futex.Waiter).Sleep, and
# core's FutexWait sleeps only through it, never on a channel. Fails when a
# non-test file of the packages that wait does any of these anywhere else.
#
# The kernel's sleeps are written once each too (DESIGN §2.4): a thread
# sleeps only in the five named sleep functions, those ask only
# blocker.interrupted what ends the sleep (never signalPending directly),
# and deadlock cells are registered only through block.go.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find internal/ring internal/monitor internal/agent internal/futex internal/core -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/^[ \t]*\/\// { next }
	{ waiter = fn ~ /^func (Await|\(n \*Waiter\) Sleep)\(/ }
	/\.Prepare\(\)/ && !waiter { print FILENAME ":" FNR ": Prepare() outside ring.Await and futex.Waiter.Sleep"; bad = 1 }
	/\.Park\(/ && !waiter && fn !~ /^func (park|\(p \*Parker\) [A-Za-z]+)\(/ { print FILENAME ":" FNR ": Park outside ring.Await and futex.Waiter.Sleep"; bad = 1 }
	/runtime\.Gosched/ && fn !~ /^func Backoff\(/ { print FILENAME ":" FNR ": runtime.Gosched outside ring.Backoff"; bad = 1 }
	/<-/ && fn ~ /^func \(t \*Thread\) FutexWait\(/ { print FILENAME ":" FNR ": channel operation in FutexWait"; bad = 1 }
	END { exit bad }'
find internal/kernel -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/^[ \t]*\/\// { next }
	{ sleeper = fn ~ /^func \((p \*pipe\) sleepLocked|l \*listener\) accept|k \*Kernel\) (doWaitpid|doPoll|sleepFor))\(/ }
	/board\.park\(|\.park\(cell\{/ && FILENAME !~ /block\.go$/ { print FILENAME ":" FNR ": deadlock cell registered outside block.go"; bad = 1 }
	/[cC]ond\.Wait\(\)|\.Park\(/ && !sleeper { print FILENAME ":" FNR ": sleep outside the named sleep functions"; bad = 1 }
	/signalPending\(\)/ && (sleeper || fn ~ /^func \(p \*pipe\) (recv|send)\(/) { print FILENAME ":" FNR ": blocking loop asks signalPending, not blocker.interrupted"; bad = 1 }
	END { exit bad }'
