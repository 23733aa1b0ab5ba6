package agent

import (
	"fmt"
	"strings"
	"testing"
)

// A small-bounds, exhaustive interleaving check of the batch wait (the method
// of Collavizza et al., PAPERS.md: small bounds, every interleaving, produce
// the counterexample): one master thread appends three tickets — publish,
// then wake, as ring.Append does — and goes to a rendezvous it leaves only
// when all three are replayed; one slave thread runs wocRefill.poll under
// ring.Await's protocol (poll; back off below the park threshold; Prepare;
// poll again inside the window; park until the generation moves). The state
// space is every interleaving of those steps for each initial request, patience
// and park threshold. It must exhaust without a state in which nothing can
// move: the slave asleep, a ticket published, the master at the rendezvous.
//
// The model is the code's step list, not the code: wocModel.poll mirrors
// wocRefill.poll line for line (patience first and only while it lasts, then
// any ticket; a consume ends the wait and learns the next request), and
// wocModel.slave mirrors ring.Await. What makes it worth having is the
// negative half: a patience that outlasts the spin phases — the refill whose
// predicate is still "want tickets" inside the Prepare window — must produce
// the counterexample, and does.

const modelTickets = 3

type wocModel struct {
	// master
	mpc int // step 2i publishes ticket i, step 2i+1 wakes; 2*modelTickets is the rendezvous
	pub int // tickets published
	// the buffer's wait set
	waiters, gen int
	// slave
	spc      int // slavePoll … slaveDone
	cursor   int // tickets consumed
	want     int
	patience int
	spins    int
	seen     int // generation read by Prepare
}

const (
	slavePoll = iota
	slavePrepare
	slaveWindow
	slavePark
	slaveDone
)

type wocModelParams struct {
	want, patience, parkSpins int
}

// poll is wocRefill.poll: it reports whether the wait is over.
func (m *wocModel) poll(p wocModelParams) bool {
	if m.patience > 0 && m.pub < m.cursor+m.want { // !Ready(last)
		m.patience--
		return false
	}
	m.patience = 0
	n := m.pub - m.cursor // TryConsumeBatch
	if n == 0 {
		return false
	}
	m.cursor += n
	if n < m.want { // learn: an expired wait asks for what it found, a met one for twice as much
		m.want = n
	} else {
		m.want = min(2*m.want, p.want)
	}
	return true
}

// refill starts the next Before's wait, or ends the thread.
func (m *wocModel) refill(p wocModelParams) {
	m.spc, m.spins, m.patience = slavePoll, 0, 0
	if m.cursor == modelTickets {
		m.spc = slaveDone
	} else if m.want > 1 {
		m.patience = p.patience
	}
}

// steps returns the successors of m: at most one per thread.
func (m wocModel) steps(p wocModelParams) (next []wocModel, names []string) {
	// The master.
	switch mm := m; {
	case m.mpc < 2*modelTickets && m.mpc%2 == 0:
		mm.pub++
		mm.mpc++
		next, names = append(next, mm), append(names, fmt.Sprintf("master publishes ticket %d", m.pub))
	case m.mpc < 2*modelTickets:
		if mm.waiters > 0 {
			mm.gen++
		}
		mm.mpc++
		next, names = append(next, mm), append(names, fmt.Sprintf("master wakes (%d waiters)", m.waiters))
	}
	// The slave: ring.Await around poll.
	switch sm := m; m.spc {
	case slavePoll:
		if sm.poll(p) {
			sm.refill(p)
		} else if sm.spins < p.parkSpins {
			sm.spins++ // Backoff
		} else {
			sm.spc = slavePrepare
		}
		next, names = append(next, sm), append(names, fmt.Sprintf("slave polls (want %d, patience %d): cursor %d", m.want, m.patience, sm.cursor))
	case slavePrepare:
		sm.waiters, sm.seen, sm.spc = 1, sm.gen, slaveWindow
		next, names = append(next, sm), append(names, "slave prepares")
	case slaveWindow:
		if sm.poll(p) {
			sm.waiters = 0 // Cancel
			sm.refill(p)
		} else {
			sm.spc = slavePark
		}
		next, names = append(next, sm), append(names, fmt.Sprintf("slave polls in the window (want %d, patience %d): cursor %d", m.want, m.patience, sm.cursor))
	case slavePark:
		if sm.gen != sm.seen { // otherwise asleep: no step
			sm.waiters, sm.spc = 0, slavePoll
			next, names = append(next, sm), append(names, "slave wakes up")
		}
	}
	return next, names
}

// explore walks every interleaving from the initial state and returns the
// trace to a state where nothing can move and the slave is not done, or "".
func exploreWoCModel(p wocModelParams) (trace string, states int) {
	type edge struct {
		from wocModel
		name string
	}
	start := wocModel{want: p.want}
	start.refill(p)
	came := map[wocModel]edge{start: {}}
	queue := []wocModel{start}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		next, names := m.steps(p)
		if len(next) == 0 && m.spc != slaveDone {
			var lines []string
			for at := m; at != start; at = came[at].from {
				lines = append(lines, came[at].name)
			}
			for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
				lines[i], lines[j] = lines[j], lines[i]
			}
			return strings.Join(lines, "\n") + fmt.Sprintf("\nstuck: %d of %d published tickets consumed, slave asleep wanting %d (patience %d)", m.cursor, m.pub, m.want, m.patience), len(came)
		}
		for i, n := range next {
			if _, ok := came[n]; !ok {
				came[n] = edge{m, names[i]}
				queue = append(queue, n)
			}
		}
	}
	return "", len(came)
}

func TestWoCBatchWaitModelNeverSleepsOnATicket(t *testing.T) {
	total := 0
	for want := 1; want <= 4; want++ {
		for parkSpins := 0; parkSpins <= 3; parkSpins++ {
			// The code's invariant: patience ends inside the spin phases
			// (wocPatience < 64 < 128); poll parkSpins is the last before Prepare.
			for patience := 0; patience <= parkSpins+1; patience++ {
				trace, states := exploreWoCModel(wocModelParams{want, patience, parkSpins})
				total += states
				if trace != "" {
					t.Fatalf("want %d, patience %d, park after %d spins: the slave sleeps on a published ticket:\n%s", want, patience, parkSpins, trace)
				}
			}
		}
	}
	t.Logf("%d states, no sleeper on a published ticket", total)

	// The mutant: a patience that reaches the Prepare window. With fewer
	// tickets coming than the thread wants, it must be caught asleep.
	trace, _ := exploreWoCModel(wocModelParams{want: 4, patience: 5, parkSpins: 2})
	if trace == "" {
		t.Fatal("the model let a thread park wanting 4 of 3 tickets: it cannot see the bug it exists for")
	}
	t.Logf("counterexample for a patience that outlasts the spin phases:\n%s", trace)
}

// The model's bound is the code's: every patience ends below ring's pause
// phase (64 polls; its park threshold is 128), and a thread that wants one
// ticket has none.
func TestWoCPatienceEndsInsideTheSpinPhases(t *testing.T) {
	for i, p := range wocPatience {
		if p >= 64 || (i == 0) != (p == 0) || (i > 0 && p <= wocPatience[i-1]) {
			t.Errorf("wocPatience[%d] = %d", i, p)
		}
	}
}
