#!/usr/bin/env bash
# The replication plane's wait protocol is written once (DESIGN §12):
# futex.Parker's Prepare/Park live in ring.Await, scheduler yields in
# ring.Backoff. Fails when a non-test file of the three packages that wait
# calls either anywhere else.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find internal/ring internal/monitor internal/agent -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/^[ \t]*\/\// { next }
	/\.Prepare\(\)/ && fn !~ /^func Await\(/ { print FILENAME ":" FNR ": Prepare() outside ring.Await"; bad = 1 }
	/runtime\.Gosched/ && fn !~ /^func Backoff\(/ { print FILENAME ":" FNR ": runtime.Gosched outside ring.Backoff"; bad = 1 }
	END { exit bad }'
