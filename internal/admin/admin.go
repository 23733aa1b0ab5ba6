// Package admin is the fleet's live observability plane: an HTTP server
// (real host networking, unlike the fleet's simulated kernels) exposing
//
//	/metrics       Prometheus text format, no external dependencies
//	/statusz       Report: fleet health, process tables, quarantine log (what mvee-top prints)
//	/api/snapshot  the full fleet.Snapshot as JSON
//	/reload        POST: fleet-wide zero-downtime hot restart (SIGHUP sweep)
//	/debug/pprof/  the standard Go profiler endpoints
//
// Everything renders from one fleet.Snapshot per request, so a scrape
// costs the serving path nothing beyond the lock-free snapshot reads.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/fleet"
)

// Server serves the admin plane for one fleet. Create with New, then
// Start (own listener) or mount Handler on an existing mux.
type Server struct {
	fleet *fleet.Fleet
	mux   *http.ServeMux
	srv   *http.Server
	ln    net.Listener
}

// New builds the admin server for f without binding any socket.
func New(f *fleet.Fleet) *Server {
	s := &Server{fleet: f, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/api/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/reload", s.handleReload)
	// Explicit pprof routes: the package's init only registers on
	// http.DefaultServeMux, which a library must not depend on.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the admin mux, for embedding into an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; an empty host binds all interfaces, port 0
// picks a free port) and serves in the background. It returns the bound
// address, which is what callers print and tests dial.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleReload triggers a fleet-wide hot restart: SIGHUP to every healthy
// member's root process (see fleet.Reload). POST only — it mutates serving
// state, and an idle GET from a crawler or a dashboard prefetcher must not
// cycle worker generations.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	n := s.fleet.Reload()
	fmt.Fprintf(w, "reload signalled to %d member(s)\n", n)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := SnapshotJSON(s.fleet.Snapshot())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
