// Package chaos is the fault-injection plane of the simulated-kernel MVEE
// (DESIGN.md §8). A Plan is parsed from a compact command-line grammar:
//
//	target=listener:80 latency=+5ms error=3% short-reads
//
// and an Injector draws deterministic decisions from it with a seeded
// counter PRNG. The kernel consults the injector once per eligible call —
// always in the master variant's execution of a replicated syscall — and
// carries the verdict in the replicated record, so every variant observes
// the identical fault. Chaos here is a reproducible experiment, not a dice
// roll: the same seed against the same workload injects the same faults in
// the same places, run after run, including under record/replay.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// Plan is a parsed fault plan: an ordered list of rules plus the PRNG seed.
// Rules compose — a call matching several rules accumulates all their
// effects (latencies add; the last matching error rule's errno wins).
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Rule is one fault clause, scoped to a target selector.
type Rule struct {
	// Target selects the object kind (kernel.FaultNone = every kind).
	Target kernel.FaultTarget
	// Port restricts a listener rule to one bound port (0 = any).
	Port uint16
	// Latency is added to every matching call (latency=+5ms).
	Latency time.Duration
	// ErrorRate in [0,1] fails that fraction of matching calls with Errno
	// (error=3%).
	ErrorRate float64
	// Errno is the injected failure code (errno=ECONNRESET; default EIO).
	Errno kernel.Errno
	// TimeoutRate in [0,1] forces timeout semantics on that fraction of
	// matching calls (timeout=5%).
	TimeoutRate float64
	// ShortReads/ShortWrites truncate matching transfers (short-reads,
	// short-writes).
	ShortReads  bool
	ShortWrites bool
}

// injectableErrnos is the grammar's errno vocabulary: transient I/O
// failures a guest's error paths should survive.
var injectableErrnos = map[string]kernel.Errno{
	"EIO":        kernel.EIO,
	"ECONNRESET": kernel.ECONNRESET,
	"EAGAIN":     kernel.EAGAIN,
	"EPIPE":      kernel.EPIPE,
	"EINTR":      kernel.EINTR,
}

var targetNames = map[string]kernel.FaultTarget{
	"all":      kernel.FaultNone,
	"pipe":     kernel.FaultPipe,
	"socket":   kernel.FaultSocket,
	"listener": kernel.FaultListener,
	"poll":     kernel.FaultPoll,
	"sleep":    kernel.FaultSleep,
}

// Parse parses a fault plan. Rules are separated by ';'; inside a rule,
// space-separated clauses are either key=value pairs (target, latency,
// error, errno, timeout, seed) or bare flags (short-reads, short-writes).
// An empty spec yields a nil plan (injection disabled).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, rspec := range strings.Split(spec, ";") {
		fields := strings.Fields(rspec)
		if len(fields) == 0 {
			continue
		}
		r := Rule{Errno: kernel.EIO}
		armed := false
		for _, f := range fields {
			key, val, hasVal := strings.Cut(f, "=")
			switch key {
			case "target":
				if !hasVal {
					return nil, fmt.Errorf("chaos: target needs a value (target=listener:80)")
				}
				name, port, hasPort := strings.Cut(val, ":")
				t, ok := targetNames[name]
				if !ok {
					return nil, fmt.Errorf("chaos: unknown target %q (all, pipe, socket, listener[:port], poll, sleep)", name)
				}
				r.Target = t
				if hasPort {
					if t != kernel.FaultListener {
						return nil, fmt.Errorf("chaos: only listener targets take a port (%q)", val)
					}
					n, err := strconv.ParseUint(port, 10, 16)
					if err != nil {
						return nil, fmt.Errorf("chaos: bad listener port %q", port)
					}
					r.Port = uint16(n)
				}
			case "latency":
				if !hasVal {
					return nil, fmt.Errorf("chaos: latency needs a duration (latency=+5ms)")
				}
				d, err := time.ParseDuration(strings.TrimPrefix(val, "+"))
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("chaos: bad latency %q", val)
				}
				r.Latency = d
				armed = true
			case "error":
				rate, err := parseRate(val, hasVal)
				if err != nil {
					return nil, fmt.Errorf("chaos: bad error rate %q", val)
				}
				r.ErrorRate = rate
				// A zero rate injects nothing: it must not arm the rule,
				// or String would drop the clause and render a plan with
				// no fault clauses (which Parse rejects).
				armed = armed || rate > 0
			case "timeout":
				rate, err := parseRate(val, hasVal)
				if err != nil {
					return nil, fmt.Errorf("chaos: bad timeout rate %q", val)
				}
				r.TimeoutRate = rate
				armed = armed || rate > 0
			case "errno":
				e, ok := injectableErrnos[strings.ToUpper(val)]
				if !ok || !hasVal {
					return nil, fmt.Errorf("chaos: unknown errno %q (EIO, ECONNRESET, EAGAIN, EPIPE, EINTR)", val)
				}
				r.Errno = e
			case "short-reads":
				r.ShortReads = true
				armed = true
			case "short-writes":
				r.ShortWrites = true
				armed = true
			case "seed":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || !hasVal {
					return nil, fmt.Errorf("chaos: bad seed %q", val)
				}
				p.Seed = n
			default:
				return nil, fmt.Errorf("chaos: unknown clause %q", f)
			}
		}
		if armed {
			p.Rules = append(p.Rules, r)
		}
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("chaos: plan %q has no fault clauses", spec)
	}
	return p, nil
}

func parseRate(val string, hasVal bool) (float64, error) {
	if !hasVal {
		return 0, fmt.Errorf("missing value")
	}
	pct := strings.HasSuffix(val, "%")
	f, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad rate")
	}
	if pct {
		f /= 100
	}
	if f > 1 {
		return 0, fmt.Errorf("rate above 100%%")
	}
	return f, nil
}

// String renders the plan back in (normalized) grammar form.
func (p *Plan) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteString("; ")
		}
		name := r.Target.String()
		if r.Target == kernel.FaultNone {
			// FaultNone stringifies as "none" kernel-side, but the grammar
			// spells the match-everything target "all" — keep String's
			// output parseable.
			name = "all"
		}
		fmt.Fprintf(&b, "target=%s", name)
		if r.Port != 0 {
			fmt.Fprintf(&b, ":%d", r.Port)
		}
		if r.Latency > 0 {
			fmt.Fprintf(&b, " latency=+%s", r.Latency)
		}
		if r.ErrorRate > 0 {
			fmt.Fprintf(&b, " error=%g%% errno=%s", r.ErrorRate*100, r.Errno)
		}
		if r.TimeoutRate > 0 {
			fmt.Fprintf(&b, " timeout=%g%%", r.TimeoutRate*100)
		}
		if r.ShortReads {
			b.WriteString(" short-reads")
		}
		if r.ShortWrites {
			b.WriteString(" short-writes")
		}
	}
	fmt.Fprintf(&b, " seed=%d", p.Seed)
	return b.String()
}

// matches reports whether the rule applies to the op. The zero target
// matches every kind; a port-qualified rule additionally requires the op's
// port.
func (r *Rule) matches(op kernel.FaultOp) bool {
	if r.Target != kernel.FaultNone && r.Target != op.Kind {
		return false
	}
	if r.Port != 0 && r.Port != op.Port {
		return false
	}
	return true
}

// Injector draws fault decisions from a Plan. Decisions are deterministic
// in the order calls reach the kernel: one atomic counter increment per
// decision feeds a splitmix64 stream, so a deterministic workload (and the
// master's execution of replicated calls IS the deterministic sequence)
// sees the same faults every run. Concurrency-safe; one Injector may be
// shared across the sessions of a fleet, at the cost of per-member
// determinism (the members then interleave on the shared counter).
type Injector struct {
	plan *Plan
	ctr  atomic.Uint64
	// injected counts decisions that carried at least one fault effect.
	injected atomic.Uint64
}

// New returns an injector for the plan; a nil plan yields a nil injector,
// which kernel.SetInjector treats as "injection disabled".
func New(p *Plan) *Injector {
	if p == nil || len(p.Rules) == 0 {
		return nil
	}
	return &Injector{plan: p}
}

// Injected reports how many calls have had at least one fault injected.
func (in *Injector) Injected() uint64 { return in.injected.Load() }

// Decide implements kernel.FaultInjector. It is nil-receiver safe, so a
// nil *Injector stored in the interface (a disabled plan passed through
// layers that don't check) decides nothing rather than crashing.
func (in *Injector) Decide(op kernel.FaultOp) (kernel.FaultDecision, bool) {
	if in == nil {
		return kernel.FaultDecision{}, false
	}
	// One counter draw per decision; per-rule sub-streams are derived
	// locally so the draw count per call never depends on how many rules
	// match (a plan edit shifts decisions, a cache miss never does).
	base := splitmix64(in.plan.Seed + in.ctr.Add(1)*0x9e3779b97f4a7c15)
	var d kernel.FaultDecision
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.matches(op) {
			continue
		}
		u := splitmix64(base ^ (uint64(i+1) * 0xbf58476d1ce4e5b9))
		if r.Latency > 0 {
			d.Delay += r.Latency
		}
		if r.ErrorRate > 0 && frac(splitmix64(u^1)) < r.ErrorRate {
			d.Err = r.Errno
		}
		if r.TimeoutRate > 0 && frac(splitmix64(u^2)) < r.TimeoutRate {
			d.Timeout = true
		}
		if (r.ShortReads && (op.Nr == kernel.SysRead || op.Nr == kernel.SysRecv)) ||
			(r.ShortWrites && (op.Nr == kernel.SysWrite || op.Nr == kernel.SysSend)) {
			d.Short = true
		}
	}
	if d == (kernel.FaultDecision{}) {
		return d, false
	}
	in.injected.Add(1)
	return d, true
}

// splitmix64 is the standard 64-bit finalizer-style PRNG step: cheap,
// stateless, and uniform enough for fault rates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a 64-bit draw onto [0,1).
func frac(u uint64) float64 { return float64(u>>11) / (1 << 53) }
