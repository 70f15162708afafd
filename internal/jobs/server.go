package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dashboard"
)

// Server is the HTTP/JSON face of a Manager. Endpoints:
//
//	POST /jobs                submit a Spec, returns {"id": ...}
//	GET  /jobs                list all jobs (JobView array)
//	GET  /jobs/{id}           one job's JobView
//	POST /jobs/{id}/pause     park the job at its next stage boundary
//	POST /jobs/{id}/resume    re-queue a paused job
//	POST /jobs/{id}/cancel    abort the job
//	GET  /jobs/{id}/events    SSE: the job's telemetry stream — full backlog,
//	                          then the live tail, `event: eof` when the job
//	                          goes terminal
//	GET  /jobs/{id}/trace     the canonical JSONL trace file as written so far
//	GET  /jobs/{id}/placement the final placement (designio format; done jobs)
//	GET  /jobs/{id}/dashboard/  the live dashboard page for this job
//	GET  /healthz             liveness probe (is the process serving?)
//	GET  /readyz              readiness probe (should it receive new work?):
//	                          503 with a reason while draining or overloaded
//	GET  /statusz             supervision metrics (restarts, quarantines,
//	                          stalls, shed requests, worker/queue gauges)
//
// Overload and abuse protection on POST /jobs: submissions must be
// application/json, bodies are hard-capped with http.MaxBytesReader, and a
// per-client-IP token bucket plus the manager's queue-depth and disk guards
// shed excess load with 503 + Retry-After rather than queue it unboundedly.
//
// Every byte a client streams or downloads is served from the same hub and
// files that carry the canonical trace, so what the API shows is exactly
// what the byte-identity contract covers.
type Server struct {
	m      *Manager
	cfg    ServerConfig
	limits *rateLimiter
}

// ServerConfig parameterizes the HTTP protections.
type ServerConfig struct {
	// RatePerSec and Burst shape the per-client-IP token bucket on
	// POST /jobs (defaults 5/s, burst 10; RatePerSec < 0 disables).
	RatePerSec float64
	Burst      int
	// RetryAfter is the Retry-After value sent with 503 sheds (default 1s).
	RetryAfter time.Duration
}

func (c *ServerConfig) fill() {
	if c.RatePerSec == 0 {
		c.RatePerSec = 5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// NewServerWith wraps a Manager with explicit protection settings.
func NewServerWith(m *Manager, cfg ServerConfig) *Server {
	cfg.fill()
	s := &Server{m: m, cfg: cfg}
	if cfg.RatePerSec > 0 {
		s.limits = newRateLimiter(cfg.RatePerSec, cfg.Burst)
	}
	return s
}

// Handler returns the server's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("GET /statusz", s.statusz)
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.get)
	mux.HandleFunc("POST /jobs/{id}/pause", s.control((*Manager).Pause))
	mux.HandleFunc("POST /jobs/{id}/resume", s.control((*Manager).Resume))
	mux.HandleFunc("POST /jobs/{id}/cancel", s.control((*Manager).Cancel))
	mux.HandleFunc("GET /jobs/{id}/events", s.events)
	mux.HandleFunc("GET /jobs/{id}/trace", s.trace)
	mux.HandleFunc("GET /jobs/{id}/placement", s.placement)
	mux.HandleFunc("GET /jobs/{id}/dashboard/", s.dashboard)
	return mux
}

// shed rejects a request with 503 + Retry-After — the graceful-degradation
// contract: clients back off and retry instead of piling on.
func (s *Server) shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// fail maps manager errors onto HTTP statuses.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSuchJob):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadTransition):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrStateDir):
		// Both are operational, usually transient conditions: shed and let
		// the client retry rather than report a permanent failure.
		s.shed(w, err.Error())
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.m.Ready(); !ok {
		s.shed(w, reason)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) statusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.m.Stats())
}

// clientKey identifies the submitter for rate limiting: the remote IP
// without the ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	if s.limits != nil && !s.limits.allow(clientKey(r), time.Now()) {
		s.m.NoteShed()
		s.shed(w, "rate limit exceeded for "+clientKey(r))
		return
	}
	if ct := r.Header.Get("Content-Type"); !isJSONContentType(ct) {
		http.Error(w, fmt.Sprintf("submit requires Content-Type application/json, got %q", ct),
			http.StatusUnsupportedMediaType)
		return
	}
	// MaxBytesReader (unlike a bare LimitReader) closes the connection and
	// produces a typed error once the cap is crossed, so an oversized body
	// cannot be streamed in full before being rejected.
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxPayloadBytes+1<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("spec exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.m.Submit(spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": id})
}

// decodeSpec reads one JSON job spec, refusing unknown fields.
func decodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	err := dec.Decode(&spec)
	return spec, err
}

func isJSONContentType(ct string) bool {
	// application/json with optional parameters (charset); no multipart or
	// form encodings.
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	for len(ct) > 0 && (ct[len(ct)-1] == ' ' || ct[len(ct)-1] == '\t') {
		ct = ct[:len(ct)-1]
	}
	return ct == "application/json"
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.m.List())
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	v, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, v)
}

// control adapts a Manager state-transition method into a handler.
func (s *Server) control(op func(*Manager, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := op(s.m, id); err != nil {
			s.fail(w, err)
			return
		}
		v, err := s.m.Get(id)
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, v)
	}
}

// events streams the job's trace over SSE through the dashboard's
// ServeEvents: backlog first (gap-free), then the live tail; `event: eof`
// when the hub closes — for a terminal job that happens right after the
// backlog.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	hub, err := s.m.Hub(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	dashboard.ServeEvents(w, r, hub)
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	path, err := s.m.TracePath(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	http.ServeFile(w, r, path)
}

func (s *Server) placement(w http.ResponseWriter, r *http.Request) {
	path, err := s.m.PlacementPath(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	http.ServeFile(w, r, path)
}

// dashboard mounts the shared live dashboard under the job's prefix. The
// dashboard is a thin stateless view over the hub, so constructing one per
// request is free; its page uses relative URLs, which is what makes the
// StripPrefix mount work. Its SSE stream sets its own write deadlines, so
// the listener's WriteTimeout does not sever live charts.
func (s *Server) dashboard(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hub, err := s.m.Hub(id)
	if err != nil {
		s.fail(w, err)
		return
	}
	view, err := s.m.Get(id)
	if err != nil {
		s.fail(w, err)
		return
	}
	title := fmt.Sprintf("%s — %s (job %s)", view.Design, view.Mode, id)
	h := http.StripPrefix(fmt.Sprintf("/jobs/%s/dashboard", id),
		dashboard.NewServer(hub, title).Handler())
	h.ServeHTTP(w, r)
}
