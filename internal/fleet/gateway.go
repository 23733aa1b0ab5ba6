package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// The gateway: request fan-in over the pool. Requests are opaque byte
// payloads written to one connection of a member's server; the response is
// whatever the server writes back on that connection. A bounded queue sits
// between submitters and the worker goroutines so that overload turns
// into backpressure (Do blocks, TryDo fails fast) instead of piling up
// goroutines behind a saturated pool.

var (
	// ErrClosed is returned for requests submitted to a closed fleet.
	ErrClosed = errors.New("fleet: closed")
	// ErrOverloaded is returned by TryDo when the gateway queue is full.
	ErrOverloaded = errors.New("fleet: gateway queue full")
	// ErrNoHealthyMember is returned when no member accepted the request
	// within the spawn timeout (the whole pool diverged faster than it
	// respawns, or the fleet is shutting down).
	ErrNoHealthyMember = errors.New("fleet: no healthy member")
)

type pending struct {
	req  []byte
	resp chan gwResult
}

type gwResult struct {
	data []byte
	err  error
}

// pendingPool recycles pending structs together with their response
// channels, so a steady-state request allocates neither. The reuse
// invariant: every pending that enters the queue receives exactly one send
// on resp (handle always responds, and Close's graceful drain finishes the
// queue), and the submitter receives it before releasing the pending back
// to the pool — so a pooled pending's channel is always empty.
var pendingPool = sync.Pool{
	New: func() any { return &pending{resp: make(chan gwResult, 1)} },
}

func getPending(req []byte) *pending {
	p := pendingPool.Get().(*pending)
	p.req = req
	return p
}

func putPending(p *pending) {
	p.req = nil // don't pin the caller's payload in the pool
	pendingPool.Put(p)
}

// Do submits one request and blocks for the response. A full queue blocks
// the caller (backpressure); use TryDo to fail fast instead.
//
// The closed-check and the enqueue happen under closeMu's read side:
// while any submitter holds it, Close cannot proceed, so the workers are
// guaranteed to still be draining the queue when the request lands in it.
func (f *Fleet) Do(req []byte) ([]byte, error) {
	p := getPending(req)
	f.closeMu.RLock()
	if f.closed.Load() {
		f.closeMu.RUnlock()
		putPending(p)
		return nil, ErrClosed
	}
	f.queue <- p
	f.closeMu.RUnlock()
	r := <-p.resp
	putPending(p)
	return r.data, r.err
}

// TryDo submits one request without blocking on a full queue: it returns
// ErrOverloaded immediately when the gateway is saturated.
func (f *Fleet) TryDo(req []byte) ([]byte, error) {
	p := getPending(req)
	f.closeMu.RLock()
	if f.closed.Load() {
		f.closeMu.RUnlock()
		putPending(p)
		return nil, ErrClosed
	}
	select {
	case f.queue <- p:
		f.closeMu.RUnlock()
	default:
		f.closeMu.RUnlock()
		putPending(p)
		f.rejected.Add(1)
		return nil, ErrOverloaded
	}
	r := <-p.resp
	putPending(p)
	return r.data, r.err
}

// gwBatch is how many pendings a gateway worker dequeues per wakeup. Under
// load the queue runs deep and one blocking receive amortizes over up to
// gwBatch-1 non-blocking ones — one scheduler wakeup and one channel-lock
// acquisition per batch instead of per request. Under light load the
// drain finds the queue empty and the batch degenerates to length 1,
// costing only a failed non-blocking receive.
const gwBatch = 16

// worker drains the queue in batches until the fleet closes, then
// finishes whatever is still queued (graceful drain).
func (f *Fleet) worker(id int) {
	defer f.wg.Done()
	sh := &f.shards[id]
	// One response-sized scratch buffer per worker: tryMember reads into
	// it and copies out only the bytes actually received, instead of
	// allocating maxResponse per request on the hot path.
	scratch := make([]byte, maxResponse)
	var batch [gwBatch]*pending
	for {
		select {
		case p := <-f.queue:
			f.handleBatch(p, batch[:], sh, scratch)
		case <-f.quit:
			for {
				select {
				case p := <-f.queue:
					f.handleBatch(p, batch[:], sh, scratch)
				default:
					return
				}
			}
		}
	}
}

// handleBatch serves first plus whatever else is already queued, up to the
// batch capacity. Requests are answered in arrival order; latency is
// recorded per request inside handle, so queue-depth effects stay visible
// in the histogram.
func (f *Fleet) handleBatch(first *pending, batch []*pending, sh *latencyShard, scratch []byte) {
	batch[0] = first
	n := 1
	for n < len(batch) {
		select {
		case p := <-f.queue:
			batch[n] = p
			n++
		default:
			goto serve
		}
	}
serve:
	for i := 0; i < n; i++ {
		f.handle(batch[i], sh, scratch)
		batch[i] = nil // don't pin served pendings until the next deep batch
	}
}

func (f *Fleet) handle(p *pending, sh *latencyShard, scratch []byte) {
	t0 := time.Now()
	data, err := f.serve(p.req, scratch)
	sh.h.ObserveDuration(time.Since(t0))
	if err != nil {
		f.errors.Add(1)
	} else {
		f.served.Add(1)
	}
	p.resp <- gwResult{data: data, err: err}
}

// serve dispatches one request to a member, re-dispatching to each other
// member in turn when CONNECTING to the chosen member fails — the member
// died between selection and connect, so nothing reached it and the
// request is safe to move. Once any bytes were written the request is
// never retried: the gateway cannot know whether the member acted on them,
// and a request that *caused* the divergence (an exploit payload) must burn
// at most one session, not be walked across the whole pool.
func (f *Fleet) serve(req, scratch []byte) ([]byte, error) {
	var tried map[*member]bool
	var lastErr error
	for attempt := 0; attempt < f.cfg.Size; attempt++ {
		m := f.pickWait(tried)
		if m == nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ErrNoHealthyMember
		}
		data, err, retry := f.tryMember(m, req, scratch)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retry {
			return nil, err
		}
		if tried == nil {
			tried = make(map[*member]bool, f.cfg.Size)
		}
		tried[m] = true
	}
	return nil, lastErr
}

// tryMember plays one request against one member. The third return value
// reports whether the request may be re-dispatched (true only if nothing
// was written to the member). A watchdog closes the connection after
// RequestTimeout so a member that hangs without diverging cannot pin the
// worker (closing unblocks the pipe read with EBADF).
func (f *Fleet) tryMember(m *member, req, scratch []byte) ([]byte, error, bool) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	cc, errno := m.sess.Kernel().Connect(f.cfg.Port)
	if errno != kernel.OK {
		return nil, fmt.Errorf("fleet: connect to slot %d (gen %d): %w", m.slot, m.gen, errno), true
	}
	watchdog := f.cfg.Session.Clock.AfterFunc(f.cfg.RequestTimeout, cc.Close)
	defer watchdog.Stop()
	defer cc.Close()
	if _, err := cc.Write(req); err != nil {
		return nil, fmt.Errorf("fleet: write to slot %d (gen %d): %w", m.slot, m.gen, err), false
	}
	n, err := cc.Read(scratch)
	if err != nil || n == 0 {
		return nil, fmt.Errorf("fleet: slot %d (gen %d) died mid-request: read: %v", m.slot, m.gen, err), false
	}
	m.served.Add(1)
	return append([]byte(nil), scratch[:n]...), nil, false
}

// StatsTable renders the fleet stats as an aligned table (the head of
// admin.Report). Every Stats field appears: the counters,
// the uptime, and the latency histogram's sample count, mean, quantiles,
// and max.
func StatsTable(s Stats) string {
	t := &stats.Table{Header: []string{"metric", "value"}}
	t.Add("served", fmt.Sprintf("%d", s.Served))
	t.Add("errors", fmt.Sprintf("%d", s.Errors))
	t.Add("rejected (backpressure)", fmt.Sprintf("%d", s.Rejected))
	t.Add("divergences quarantined", fmt.Sprintf("%d", s.Divergences))
	t.Add("deadlocks quarantined", fmt.Sprintf("%d", s.Deadlocks))
	t.Add("crashes quarantined", fmt.Sprintf("%d", s.Crashes))
	t.Add("sessions recycled", fmt.Sprintf("%d", s.Recycled))
	t.Add("hot restarts", fmt.Sprintf("%d", s.Reloads))
	t.Add("healthy members", fmt.Sprintf("%d", s.Healthy))
	t.Add("uptime", s.Uptime.Round(time.Millisecond).String())
	t.Add("throughput", fmt.Sprintf("%.0f req/s", s.Throughput()))
	t.Add("latency samples", fmt.Sprintf("%d", s.Latency.Count()))
	t.Add("latency mean", time.Duration(s.Latency.MeanValue()).String())
	t.Add("latency p50", time.Duration(s.Latency.Quantile(0.50)).String())
	t.Add("latency p90", time.Duration(s.Latency.Quantile(0.90)).String())
	t.Add("latency p99", time.Duration(s.Latency.Quantile(0.99)).String())
	t.Add("latency max", time.Duration(s.Latency.MaxValue()).String())
	return t.String()
}
