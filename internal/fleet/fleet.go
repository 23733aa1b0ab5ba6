// Package fleet runs a pool of concurrent MVEE sessions behind a request
// gateway, turning the single-session reproduction (one mvee.Run, one
// divergence kills everything) into a serving system: N sessions of the
// same server program run side by side, each with its own simulated kernel
// and its own set of lockstepped variants, and a gateway fans incoming
// requests over the pool.
//
// The fleet owns the whole session lifecycle. Members are spawned warm
// (the gateway only dispatches to a member once its listener answers),
// requests are dispatched round-robin, the gateway queue is bounded so
// overload surfaces as backpressure instead of unbounded memory growth,
// and Close drains gracefully. When the monitor kills a session because
// its variants diverged — an attack, or a §5.5-style
// uninstrumented synchronization primitive — the fleet quarantines the
// session (capturing the monitor.Divergence and the session's forensic
// counters, plus the full execution trace when Session.Record is set)
// and hot-replaces it with a fresh session so the pool keeps serving. The
// replacement is re-randomized: its diversity seed differs from the
// quarantined session's, so a layout leak that let an attacker divert one
// session is useless against its successor.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/stats"
)

const (
	// spawnTimeout bounds how long a spawned member may take to start
	// listening, and how long a request waits for a healthy member while
	// the pool is recycling.
	spawnTimeout = 10 * time.Second
	// maxResponse caps the gateway's response read buffer.
	maxResponse = 64 << 10
	// maxQuarantined caps the retained quarantine records (oldest are
	// dropped first) so a long-lived pool under divergence churn does not
	// grow without bound — each record can pin a full execution trace
	// under Session.Record. The divergence/crash/recycle counters keep
	// counting past the cap.
	maxQuarantined = 64
)

// Config shapes a fleet.
type Config struct {
	// Size is the number of concurrent MVEE sessions in the pool (>= 1).
	Size int
	// Session is the per-session MVEE template (variants, agent, policy,
	// diversity). Session.Seed seeds slot 0's initial layout; respawned
	// sessions are re-randomized (see recycle.go). Session.Kernel must be
	// nil: every member owns a private kernel, which is what lets all
	// members listen on the same Port without colliding. Session.Clock
	// drives the member kernels and the gateway's request watchdog alike,
	// so a RequestTimeout tightens with an accelerated (scaled) clock; nil
	// is the wall clock. Session.Record makes every quarantine carry the
	// session's execution trace, replayable offline with core Replay; it
	// forces the wall-of-clocks agent and costs memory proportional to
	// session activity, so leave it off for long-lived pools.
	Session core.Options
	// Program is the server program every session runs. It must listen on
	// Port and serve one response per accepted connection.
	Program core.Program
	// Port is the port the program listens on inside each session kernel.
	Port uint16
	// QueueCap bounds the gateway queue; a full queue rejects TryDo with
	// ErrOverloaded and blocks Do (backpressure). Default 256.
	QueueCap int
	// Workers is the number of gateway goroutines draining the queue.
	// Default 2*Size.
	Workers int
	// RequestTimeout bounds one request's write+read against a member; a
	// member that accepts a connection and then hangs without diverging
	// would otherwise pin a gateway worker (and wedge Close) forever.
	// Default 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds the per-member session join during Close;
	// members still running after it are killed. Default 30s.
	DrainTimeout time.Duration
}

func (c *Config) fill() error {
	if c.Size <= 0 {
		c.Size = 1
	}
	if c.Program.Main == nil {
		return errors.New("fleet: Config.Program is required")
	}
	if c.Port == 0 {
		return errors.New("fleet: Config.Port is required")
	}
	if c.Session.Kernel != nil {
		return errors.New("fleet: Session.Kernel must be nil; every member owns a private kernel")
	}
	if c.Session.Replay != nil {
		return errors.New("fleet: replay sessions cannot serve in a fleet")
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Workers <= 0 {
		c.Workers = 2 * c.Size
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Session.Clock == nil {
		c.Session.Clock = kernel.RealClock()
	}
	// The fleet always runs its sessions with telemetry: the syscall
	// matrix and flight recorders are what the admin plane and the
	// quarantine forensics are built on. Per replicated call it costs one
	// uncontended atomic add for the matrix and one Flight.Append per
	// variant: an FNV-1a digest of the arguments and payload, a head.Add
	// shared by every thread and five stores. The appends are most of the
	// price, about a quarter of a strict-lockstep getpid on a 2-CPU host;
	// the benchmark's monitor.telemetry_delta_ns cell measures it.
	c.Session.Telemetry = true
	return nil
}

// member is one pool slot's current session.
type member struct {
	slot int   // stable pool position
	gen  int   // respawn generation of this slot (0 = initial)
	seed int64 // diversity seed this session was built with

	sess     *core.Session
	healthy  atomic.Bool  // accepts dispatch
	inflight atomic.Int64 // requests currently being served
	served   atomic.Uint64
	ready    chan struct{} // closed once the listener answered (or startup failed)
	done     chan struct{} // closed once the session finished
	res      *core.Result  // valid after done
}

// Fleet is a pool of MVEE sessions behind a gateway. Create with New.
type Fleet struct {
	cfg   Config
	start time.Time

	mu    sync.RWMutex // guards slots
	slots []*member
	rr    atomic.Uint64 // round-robin cursor

	queue chan *pending
	quit  chan struct{}
	// closeMu serializes request enqueue against Close: submitters hold
	// the read side across their closed-check + enqueue, so once Close
	// has flipped closed under the write side, nothing can slip into the
	// queue behind the exiting workers.
	closeMu sync.RWMutex
	closed  atomic.Bool
	wg      sync.WaitGroup // gateway workers
	liveWG  sync.WaitGroup // member lifecycle goroutines

	shards []latencyShard // one per worker; merged by Stats

	quarMu      sync.Mutex
	quarantined []Quarantine
	divergences atomic.Uint64
	deadlocks   atomic.Uint64
	crashes     atomic.Uint64
	recycled    atomic.Uint64

	served   atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	reloads  atomic.Uint64
}

// latencyShard is one gateway worker's latency histogram. Recording is
// lock-free (see stats.AtomicHistogram): the owning worker observes on
// every request and a Stats reader snapshots concurrently, with neither
// ever blocking the other. Sharding per worker keeps even the atomic
// counters essentially uncontended.
type latencyShard struct {
	h stats.AtomicHistogram
	_ [64]byte // keep neighboring shards' hot words off one cache line
}

// New builds the pool, spawns every member, waits until all of them are
// serving, and starts the gateway workers.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:    cfg,
		start:  time.Now(),
		slots:  make([]*member, cfg.Size),
		queue:  make(chan *pending, cfg.QueueCap),
		quit:   make(chan struct{}),
		shards: make([]latencyShard, cfg.Workers),
	}
	f.mu.Lock()
	for slot := range f.slots {
		m := f.newMember(slot, 0)
		f.slots[slot] = m
		f.launch(m)
	}
	f.mu.Unlock()
	for _, m := range f.slots {
		<-m.ready
	}
	for _, m := range f.slots {
		if !m.healthy.Load() {
			f.Close()
			return nil, fmt.Errorf("fleet: slot %d never started listening on port %d", m.slot, cfg.Port)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		f.wg.Add(1)
		go f.worker(w)
	}
	return f, nil
}

// newMember builds slot's generation-gen session WITHOUT starting it.
// Construction is deliberately separated from launch so replace can pay
// the session-build cost outside f.mu.
func (f *Fleet) newMember(slot, gen int) *member {
	opts := f.cfg.Session
	opts.Seed = memberSeed(f.cfg.Session.Seed, slot, gen)
	m := &member{
		slot: slot, gen: gen, seed: opts.Seed,
		sess:  core.NewSession(opts, f.cfg.Program),
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	// Stop dispatching to a diverged member as soon as the monitor kills
	// it, without waiting for the variants to finish unwinding.
	m.sess.OnDivergence(func(*monitor.Divergence) { m.healthy.Store(false) })
	return m
}

// launch starts a constructed member's lifecycle goroutine. Callers hold
// f.mu (which is what makes the liveWG.Add safe against Close: a launch
// can only happen while closed is false, and then only from a goroutine
// liveWG already counts or before the fleet is shared).
func (f *Fleet) launch(m *member) {
	f.liveWG.Add(1)
	go f.runMember(m)
}

// runMember drives one member's lifecycle: start, warm up, serve, and on
// divergence or crash quarantine + respawn.
func (f *Fleet) runMember(m *member) {
	defer f.liveWG.Done()
	m.sess.Start()
	warm := f.awaitListener(m)
	if warm {
		m.healthy.Store(true)
		// A divergence can land between the successful probe and the
		// store above, in which case the OnDivergence hook's
		// healthy=false just lost the race — re-check so a dead session
		// is never resurrected into dispatch.
		if m.sess.Monitor().Killed() {
			m.healthy.Store(false)
		}
	} else {
		m.sess.Kill()
	}
	close(m.ready)
	res := m.sess.Wait()
	m.healthy.Store(false)
	m.res = res
	close(m.done)
	// Recycle a session that died while serving — a divergence, a program
	// crash (panic), or a detected deadlock (Options.DetectDeadlocks): a
	// wedged member would otherwise hold its slot forever while serving
	// nothing. A session that exited cleanly chose to (the fleet closing
	// its listener, or the program finishing), and one that never warmed
	// up would respawn-spin, so neither is replaced.
	if warm && (res.Divergence != nil || res.Panic != nil || res.Deadlock != nil) {
		f.quarantine(m, res)
		f.replace(m)
	}
}

// awaitListener probes the member's kernel until the program's listener
// accepts a connection (the warm-spawn barrier), or the session dies, or
// the timeout passes.
func (f *Fleet) awaitListener(m *member) bool {
	deadline := time.Now().Add(spawnTimeout)
	for {
		if cc, errno := m.sess.Kernel().Connect(f.cfg.Port); errno == kernel.OK {
			cc.Close()
			return true
		}
		if m.sess.Monitor().Killed() || f.closed.Load() || time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// pick returns the next healthy member not in tried, round-robin in slot
// order, or nil.
func (f *Fleet) pick(tried map[*member]bool) *member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := len(f.slots)
	at := int(f.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		m := f.slots[(at+i)%n]
		if !tried[m] && m.healthy.Load() {
			return m
		}
	}
	return nil
}

// pickWait is pick, waiting out a recycle window: with every member
// quarantined at once the pool is briefly empty while replacements warm
// up.
func (f *Fleet) pickWait(tried map[*member]bool) *member {
	deadline := time.Now().Add(spawnTimeout)
	for {
		if m := f.pick(tried); m != nil {
			return m
		}
		if f.closed.Load() || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// MemberInfo is a point-in-time view of one pool slot.
type MemberInfo struct {
	Slot     int
	Gen      int   // respawn generation (0 = initial session)
	Seed     int64 // diversity seed of the current session
	Healthy  bool
	Inflight int64
	Served   uint64
}

func (m *member) info() MemberInfo {
	return MemberInfo{
		Slot: m.slot, Gen: m.gen, Seed: m.seed,
		Healthy:  m.healthy.Load(),
		Inflight: m.inflight.Load(),
		Served:   m.served.Load(),
	}
}

// members returns the slots' current members, in slot order.
func (f *Fleet) members() []*member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*member(nil), f.slots...)
}

// Members returns a snapshot of every pool slot.
func (f *Fleet) Members() []MemberInfo {
	var out []MemberInfo
	for _, m := range f.members() {
		out = append(out, m.info())
	}
	return out
}

// Stats is the fleet-wide aggregate view.
type Stats struct {
	Served      uint64 // requests answered successfully
	Errors      uint64 // requests that failed (including divergence kills)
	Rejected    uint64 // TryDo rejections due to a full queue
	Divergences uint64 // sessions quarantined because their variants diverged
	Deadlocks   uint64 // sessions quarantined because the detector proved them wedged
	Crashes     uint64 // sessions quarantined because the program panicked
	Recycled    uint64 // replacement sessions spawned
	Reloads     uint64 // hot-restart sweeps triggered via Reload
	Healthy     int    // members currently accepting dispatch
	Uptime      time.Duration
	// Latency pools every gateway worker's histogram (see
	// internal/stats: Merge is exact, so these are the fleet-wide request
	// latency quantiles).
	Latency stats.Histogram
}

// Throughput returns successful responses per second of fleet uptime.
func (s Stats) Throughput() float64 {
	return stats.Rate(s.Served, s.Uptime.Seconds())
}

// Stats aggregates the fleet-wide counters and merges the per-worker
// latency histograms.
func (f *Fleet) Stats() Stats {
	s := Stats{
		Served:      f.served.Load(),
		Errors:      f.errors.Load(),
		Rejected:    f.rejected.Load(),
		Divergences: f.divergences.Load(),
		Deadlocks:   f.deadlocks.Load(),
		Crashes:     f.crashes.Load(),
		Recycled:    f.recycled.Load(),
		Reloads:     f.reloads.Load(),
		Uptime:      time.Since(f.start),
	}
	for i := range f.shards {
		snap := f.shards[i].h.Snapshot()
		s.Latency.Merge(&snap)
	}
	for _, m := range f.members() {
		if m.healthy.Load() {
			s.Healthy++
		}
	}
	return s
}

// Reload triggers a zero-downtime hot restart in every healthy member: it
// posts SIGHUP to the member program's root process — the prefork parent's
// reload trigger, which starts a new diversity-refreshed worker generation
// and drains the old one without dropping a request. It returns how many
// members accepted the signal. Like an operator's kill -HUP, the sweep is
// only graceful for programs that handle SIGHUP; a member program with the
// default disposition terminates instead.
func (f *Fleet) Reload() int {
	n := 0
	for _, m := range f.members() {
		if m.healthy.Load() && m.sess.Signal(kernel.SIGHUP) {
			n++
		}
	}
	f.reloads.Add(1)
	return n
}

// Close drains the fleet: no new requests are accepted, queued requests
// are served, every member's listener is closed, and all sessions are
// joined. Close is idempotent.
func (f *Fleet) Close() {
	f.closeMu.Lock()
	first := f.closed.CompareAndSwap(false, true)
	f.closeMu.Unlock()
	if !first {
		return
	}
	close(f.quit)
	// Workers finish the queue before exiting, and no enqueue can follow
	// the closed flip above (see Do), so after this wait the queue is
	// provably empty.
	f.wg.Wait()
	for _, m := range f.members() {
		m.healthy.Store(false)
		<-m.ready
		m.sess.Kernel().CloseListener(f.cfg.Port)
		select {
		case <-m.done:
		case <-time.After(f.cfg.DrainTimeout):
			m.sess.Kill()
			<-m.done
		}
	}
	f.liveWG.Wait()
}
