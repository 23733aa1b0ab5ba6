package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the harness at each boundary it crosses into the
// system (never inside it — in-program tracing is a later change), kept in
// memory, and written out when the run ends. Spans of one request share
// Req; Parent links a span to the one that caused it.

type spanName uint8

const (
	spRequest spanName = iota
	spConnect
	spWrite
	spRead
	spClose
	spFleetDo
	spSessionNew
	spSessionStart
	spSessionWait
	spFleetNew
	spFleetClose
	spanNames // count
)

var spanNameText = [spanNames]string{
	"request", "connect", "write", "read", "close", "fleet.do",
	"session.new", "session.start", "session.wait", "fleet.new", "fleet.close",
}

type span struct {
	name       spanName
	id, parent uint32 // parent 0 = root
	req        uint32 // request id shared by a request's spans; 0 = per-round span
	start, end int64  // ns since the tracer's epoch
}

// tracer owns the span store. A nil *tracer is the untraced run: every
// method on it (and on the nil *spanBuf it hands out) is a no-op, so the
// workloads carry one code path.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's private span buffer; flush merges it into the
// tracer, so recording never contends.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	return &spanBuf{t: t, spans: make([]span, 0, capacity)}
}

// newID reserves a span id ahead of the span's end, so children recorded
// first can name their parent.
func (b *spanBuf) newID() uint32 {
	if b == nil {
		return 0
	}
	return b.t.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one now).
func (b *spanBuf) add(name spanName, id, parent, req uint32, start, end time.Time) {
	if b == nil {
		return
	}
	if id == 0 {
		id = b.newID()
	}
	b.spans = append(b.spans, span{name: name, id: id, parent: parent, req: req,
		start: start.Sub(b.t.epoch).Nanoseconds(), end: end.Sub(b.t.epoch).Nanoseconds()})
}

// timed runs f as one span.
func (b *spanBuf) timed(name spanName, f func()) {
	if b == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	b.add(name, 0, 0, 0, t0, time.Now())
}

func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = b.spans[:0]
}

// spanStat is one row of the self-time table: a span's self time is its
// duration minus the part its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint32]int64) // parent id -> ns covered by children
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var agg [spanNames]spanStat
	for _, s := range t.spans {
		a := &agg[s.name]
		a.Count++
		d := s.end - s.start
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[s.id]) / 1e6
	}
	var out []spanStat
	for i := range agg {
		if agg[i].Count > 0 {
			agg[i].Name = spanNameText[i]
			out = append(out, agg[i])
		}
	}
	return out
}

// spanJSON is the trace-file form of a span.
type spanJSON struct {
	Name    string `json:"name"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent,omitempty"`
	Req     uint32 `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// sample returns the first n recorded spans: the trace file is a readable
// sample plus the full self-time table, not a dump of every request.
func (t *tracer) sample(n int) []spanJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	n = min(n, len(t.spans))
	out := make([]spanJSON, n)
	for i, s := range t.spans[:n] {
		out[i] = spanJSON{Name: spanNameText[s.name], ID: s.id, Parent: s.parent,
			Req: s.req, StartNs: s.start, EndNs: s.end}
	}
	return out
}
