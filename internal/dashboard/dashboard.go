// Package dashboard serves the live observability UI: one self-contained
// HTML page (page.go) fed by the JSONL telemetry stream of a
// telemetry.Hub over Server-Sent Events.
//
// The server is strictly read-only with respect to the run: it subscribes
// to the hub like any other consumer, so a slow or stuck browser tab can
// only ever lose ITS OWN events (counted by the hub), never slow the
// placement or change the canonical trace. All handlers run on net/http's
// connection goroutines — the dashboard spawns no goroutines of its own,
// so a placement run with `-serve` leaks nothing once its listener closes.
//
// Endpoints:
//
//	/             the dashboard page
//	/events       SSE: full backlog replay, then the live tail; one JSONL
//	              trace event per SSE message, `event: eof` at hub close
//	/heatmap?iter=K[&name=N]
//	              the congestion grid of route iteration K as PNG
//	              (shared renderer: internal/plot.WriteHeatmapPNG)
//
// The page references its endpoints by relative URL, so the whole handler
// can be mounted under a path prefix (http.StripPrefix) — the job server
// serves one dashboard per job at /jobs/{id}/dashboard/.
package dashboard

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/plot"
	"repro/internal/telemetry"
)

// Server serves the dashboard for one telemetry stream.
type Server struct {
	hub   *telemetry.Hub
	title string
	diff  string // optional A/B diff report text, shown in its own panel
}

// NewServer creates a dashboard over hub. title is shown in the page
// header (typically the design/mode under placement, or the trace file
// being replayed).
func NewServer(hub *telemetry.Hub, title string) *Server {
	return &Server{hub: hub, title: title}
}

// SetDiff attaches a trace-diff report (report.Diff.WriteReport output) to
// the page's A/B panel. Call before serving.
func (s *Server) SetDiff(text string) { s.diff = text }

// Handler returns the dashboard's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.servePage)
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) { ServeEvents(w, r, s.hub) })
	mux.HandleFunc("/heatmap", s.serveHeatmap)
	return mux
}

func (s *Server) servePage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	page := strings.Replace(pageHTML, "{{TITLE}}", html.EscapeString(s.title), 1)
	diffJSON, _ := json.Marshal(s.diff) // JS string literal, "" when unset
	page = strings.Replace(page, "{{DIFF}}", string(diffJSON), 1)
	fmt.Fprint(w, page)
}

// ServeEvents streams hub's trace over SSE: the backlog first (a dashboard
// tab opened mid-run, or a replay of a finished trace, sees the complete
// stream), then the live tail until the hub closes (`event: eof`) or the
// client leaves. A listener's WriteTimeout would sever a long-lived stream,
// so every write sets its own 30 s deadline, and a comment ping every 15 s
// keeps half-dead connections detectable. The dashboard's /events and the
// job server's /jobs/{id}/events both serve through it.
func ServeEvents(w http.ResponseWriter, r *http.Request, hub *telemetry.Hub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	write := func(frame string) bool {
		rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := io.WriteString(w, frame); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	// Trace lines carry their own trailing newline; SSE frames are
	// "data: <json>\n\n".
	send := func(line []byte) bool { return write("data: " + string(trimNewline(line)) + "\n\n") }

	backlog, sub := hub.Subscribe(1024)
	defer sub.Close()
	for _, line := range backlog {
		if !send(line) {
			return
		}
	}
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ping.C:
			if !write(": ping\n\n") {
				return
			}
		case line, ok := <-sub.C():
			if !ok {
				// Hub closed: the run is over and the stream is complete.
				write("event: eof\ndata: {}\n\n")
				return
			}
			if !send(line) {
				return
			}
		}
	}
}

// serveHeatmap renders one congestion grid frame as PNG. It scans the
// hub's backlog lazily — grid events are rare (one per route iteration)
// and small, so no index is kept.
func (s *Server) serveHeatmap(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "congestion"
	}
	wantIter := -1 // default: latest frame
	if q := r.URL.Query().Get("iter"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "bad iter", http.StatusBadRequest)
			return
		}
		wantIter = v
	}
	var frame *gridFrame
	for _, line := range s.hub.Backlog() {
		g, ok := parseGrid(line, name)
		if !ok {
			continue
		}
		if g.Iter == wantIter || wantIter == -1 {
			frame = &g // latest match wins for -1; exact match keeps last too
			if g.Iter == wantIter {
				break
			}
		}
	}
	if frame == nil {
		http.NotFound(w, r)
		return
	}
	vals := telemetry.DecodeGridValues(frame.Data, frame.Max)
	w.Header().Set("Content-Type", "image/png")
	if err := plot.WriteHeatmapPNG(w, vals, frame.NX, frame.NY, 8); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// gridFrame is the subset of a "grid" trace event the heatmap needs.
type gridFrame struct {
	Ev   string  `json:"ev"`
	Name string  `json:"name"`
	Iter int     `json:"iter"`
	NX   int     `json:"nx"`
	NY   int     `json:"ny"`
	Max  float64 `json:"max"`
	Data string  `json:"data"`
}

func parseGrid(line []byte, name string) (gridFrame, bool) {
	var g gridFrame
	if err := json.Unmarshal(line, &g); err != nil {
		return g, false
	}
	if g.Ev != "grid" || g.Name != name || g.NX <= 0 || g.NY <= 0 || len(g.Data) != g.NX*g.NY {
		return g, false
	}
	return g, true
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
