package admin_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/agent"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/variant"
	"repro/internal/webserver"
)

const testSeed = 77

func newServedFleet(t *testing.T, cfg webserver.Config, size int, tune func(*core.Options)) (*fleet.Fleet, string) {
	t.Helper()
	sess := core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true,
		Seed: testSeed, MaxThreads: 64}
	if tune != nil {
		tune(&sess)
	}
	f, err := fleet.New(webserver.FleetConfig(cfg, sess, size))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(f.Close)
	srv := admin.New(f)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin.Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return f, addr
}

func get(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	f, addr := newServedFleet(t, webserver.Config{Port: 8080, PoolThreads: 2, InstrumentCustomSync: true}, 2, nil)
	for r := 0; r < 10; r++ {
		if _, err := f.Do([]byte("GET /")); err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
	body := get(t, addr, "/metrics")
	for _, want := range []string{
		"mvee_requests_served_total 10",
		"mvee_members_healthy 2",
		// The static page is served zero-copy (sendfile), so that is the
		// per-variant counter traffic shows up under.
		`mvee_syscalls_total{variant="0",sysno="sendfile"}`,
		`mvee_syscalls_total{variant="1",sysno="sendfile"}`,
		`mvee_syscalls_total{variant="0",sysno="accept"}`,
		"mvee_futex_wakes_total",
		"mvee_ring_parks_total",
		`mvee_member_served_total{slot="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "mvee_divergences_total 0\n") == false {
		t.Errorf("/metrics divergence counter not rendered as 0:\n%s", body)
	}
	if strings.Contains(body, "mvee_deadlocks_total 0\n") == false {
		t.Errorf("/metrics deadlock counter not rendered as 0:\n%s", body)
	}
}

// TestSnapshotEndpointRoundTrips: /api/snapshot carries every counter
// /metrics and /statusz show, hot restarts and injected faults included.
// The member is a prefork server, whose parent answers SIGHUP with a hot
// restart, under a plan that delays every accept.
func TestSnapshotEndpointRoundTrips(t *testing.T) {
	plan, err := chaos.Parse("target=listener latency=+1us seed=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := webserver.Config{Port: 8080, InstrumentCustomSync: true, Prefork: true, Workers: 2}
	f, addr := newServedFleet(t, cfg, 1, func(o *core.Options) { o.Inject = chaos.New(plan) })
	for r := 0; r < 5; r++ {
		if _, err := f.Do([]byte("GET /")); err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
	if n := f.Reload(); n != 1 {
		t.Fatalf("Reload signalled %d members, want 1", n)
	}
	var snap admin.Snapshot
	if err := json.Unmarshal([]byte(get(t, addr, "/api/snapshot")), &snap); err != nil {
		t.Fatalf("decode /api/snapshot: %v", err)
	}
	if snap.Stats.Served != 5 || len(snap.Members) != 1 {
		t.Fatalf("snapshot stats = %+v, members = %d", snap.Stats, len(snap.Members))
	}
	if snap.Telemetry == nil || snap.Telemetry.Total(0) == 0 {
		t.Fatalf("snapshot telemetry missing or empty: %+v", snap.Telemetry)
	}
	if len(snap.Members[0].Procs) == 0 || len(snap.Members[0].Flight) == 0 {
		t.Fatalf("member snapshot lacks procs/flight: %+v", snap.Members[0])
	}
	if snap.Stats.Reloads != 1 {
		t.Errorf("snapshot reloads = %d, want 1", snap.Stats.Reloads)
	}
	if snap.Faults.Latency == 0 || snap.Faults.Total() != snap.Faults.Latency {
		t.Errorf("snapshot faults = %+v, want latency faults only", snap.Faults)
	}
}

// TestStatuszShowsQuarantineFlightTail is the divergence-forensics
// acceptance: an exploit payload diverges a session, and /statusz shows
// the quarantine record with a non-empty flight-recorder tail.
func TestStatuszShowsQuarantineFlightTail(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 2, InstrumentCustomSync: true,
		Vulnerable: true, PageSize: 1024}
	f, addr := newServedFleet(t, cfg, 2, nil)
	gadget := variant.NewSpace(0, variant.Options{ASLR: true, DCL: true, Seed: testSeed}).AllocCode(64)
	if resp, err := f.Do([]byte(fmt.Sprintf("POST /upload %x", gadget))); err == nil && strings.Contains(string(resp), "PWNED") {
		t.Fatalf("leak escaped: %q", resp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Divergences == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	body := get(t, addr, "/statusz")
	if !strings.Contains(body, "== quarantined sessions ==") {
		t.Fatalf("/statusz lacks the quarantine section:\n%s", body)
	}
	if !strings.Contains(body, "payload mismatch") {
		t.Errorf("/statusz lacks the divergence verdict")
	}
	for v := 0; v < 2; v++ {
		tag := fmt.Sprintf("variant %d flight tail (", v)
		at := strings.Index(body, tag)
		if at < 0 {
			t.Fatalf("/statusz lacks %q:\n%s", tag, body)
		}
		if strings.Contains(body[at:], tag+"0 records)") {
			t.Errorf("variant %d flight tail is empty", v)
		}
	}
	// The tail lines render actual records.
	if !strings.Contains(body, "digest=") {
		t.Errorf("/statusz flight tails carry no records:\n%s", body)
	}
}
