package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// A recorded task-queue program replays to the end. Its mutex and condition
// variable sleep on futexes; the single replaying variant runs as a slave,
// so its futex checks and wakes must consume the recorded order like every
// other sync op. While they did not, this replay deadlocked every time: a
// waiter checked its word after a later ticket had changed it and slept
// where only a ticket behind its own next op could wake it.
func TestRecordedRadiosityReplays(t *testing.T) {
	b, err := workload.ByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(workload.Params{Workers: 4})
	rec := runWatched(t, core.Options{Variants: 1, Record: true}, prog)
	rep := runWatched(t, core.Options{Replay: rec.Trace}, prog)
	if rep.SyncOps != rec.SyncOps {
		t.Errorf("replay ran %d sync ops, the recording %d", rep.SyncOps, rec.SyncOps)
	}
}

// runWatched runs prog and kills the session if it has not finished within
// a minute.
func runWatched(t *testing.T, opts core.Options, prog core.Program) *core.Result {
	t.Helper()
	s := core.NewSession(opts, prog)
	done := make(chan *core.Result, 1)
	go func() { done <- s.Run() }()
	var res *core.Result
	select {
	case res = <-done:
	case <-time.After(time.Minute):
		s.Kill()
		<-done
		t.Fatalf("replay=%v: session wedged", opts.Replay != nil)
	}
	if res.Divergence != nil || res.Panic != nil {
		t.Fatalf("replay=%v: diverged: %v, panic: %v", opts.Replay != nil, res.Divergence, res.Panic)
	}
	return res
}
