package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/designio"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := Open(workerConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(m, ServerConfig{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return m, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s response: %v", resp.Request.URL, err)
	}
	return v
}

func TestServerSubmitStatusStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1})

	resp := postJSON(t, ts.URL+"/jobs", fastSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := decodeJSON[map[string]string](t, resp)["id"]
	if id == "" {
		t.Fatal("submit returned no id")
	}

	// The SSE stream ends with eof when the job completes; count the data
	// frames — they are the full canonical trace, line for line.
	sresp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	events, sawEOF := 0, false
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {") {
			events++
		}
		if line == "event: eof" {
			sawEOF = true
			break
		}
	}
	if !sawEOF {
		t.Fatal("SSE stream ended without eof")
	}
	if events == 0 {
		t.Fatal("SSE stream carried no trace events")
	}

	// Terminal view with a summary.
	view := decodeJSON[JobView](t, mustGet(t, ts.URL+"/jobs/"+id))
	if view.State != StateDone || view.Summary == nil {
		t.Fatalf("view after eof = %+v", view)
	}

	// Placement and trace downloads serve the canonical artifacts.
	presp := mustGet(t, ts.URL+"/jobs/"+id+"/placement")
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("placement status = %d", presp.StatusCode)
	}
	trresp := mustGet(t, ts.URL+"/jobs/"+id+"/trace")
	defer trresp.Body.Close()
	var traceLen int
	tsc := bufio.NewScanner(trresp.Body)
	tsc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for tsc.Scan() {
		traceLen++
	}
	if traceLen != events {
		t.Fatalf("trace download has %d lines, SSE streamed %d", traceLen, events)
	}

	// List shows the job.
	list := decodeJSON[[]JobView](t, mustGet(t, ts.URL+"/jobs"))
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerPauseResumeCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1, Quantum: 1000})

	id1 := decodeJSON[map[string]string](t, postJSON(t, ts.URL+"/jobs", fastSpec()))["id"]
	id2 := decodeJSON[map[string]string](t, postJSON(t, ts.URL+"/jobs", fastSpec()))["id"]

	// Job 2 waits behind job 1 (capacity 1); cancel it while queued and
	// assert the terminal state.
	resp := postJSON(t, ts.URL+"/jobs/"+id2+"/cancel", nil)
	view := decodeJSON[JobView](t, resp)
	if view.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", view.State)
	}

	// Pause job 1 (running), await paused, resume, await done.
	if resp := postJSON(t, ts.URL+"/jobs/"+id1+"/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause status = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	waitViewState(t, ts.URL, id1, StatePaused)
	if resp := postJSON(t, ts.URL+"/jobs/"+id1+"/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	waitViewState(t, ts.URL, id1, StateDone)

	// Invalid transitions surface as 409, unknown jobs as 404.
	resp = postJSON(t, ts.URL+"/jobs/"+id1+"/resume", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume done job status = %d, want 409", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs/j9999/pause", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pause unknown job status = %d, want 404", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs", Spec{Design: "no_such"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submit status = %d, want 400", resp.StatusCode)
	}
	// A grid this size would allocate gigabytes in density.New and be
	// OOM-killed on every restart; it must be refused at the door.
	resp = postJSON(t, ts.URL+"/jobs", Spec{Design: "tiny_hot", GridHint: 8192})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("grid 8192 submit status = %d, want 400", resp.StatusCode)
	}
}

func waitViewState(t *testing.T, base, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view := decodeJSON[JobView](t, mustGet(t, base+"/jobs/"+id))
		if view.State == want {
			return
		}
		if view.State.Terminal() && view.State != want {
			t.Fatalf("job %s terminal %s, wanted %s", id, view.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func TestServerDashboardPerJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1})
	id := decodeJSON[map[string]string](t, postJSON(t, ts.URL+"/jobs", fastSpec()))["id"]
	waitViewState(t, ts.URL, id, StateDone)

	resp := mustGet(t, ts.URL+"/jobs/"+id+"/dashboard/")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d", resp.StatusCode)
	}
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	html := page.String()
	if !strings.Contains(html, "<html") || !strings.Contains(html, fmt.Sprintf("job %s", id)) {
		t.Fatalf("dashboard page missing shell or title: %.120s", html)
	}
	// The page must reference its endpoints relatively, or the per-job
	// mount (/jobs/{id}/dashboard/) would fetch another job's stream.
	if strings.Contains(html, "\"/events\"") || strings.Contains(html, "\"/heatmap") {
		t.Fatal("dashboard page uses absolute endpoint URLs; per-job mounts would break")
	}
	// The mounted events endpoint serves this job's stream and ends (job is
	// done → hub closed → backlog + eof).
	eresp := mustGet(t, ts.URL+"/jobs/"+id+"/dashboard/events")
	defer eresp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(eresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "event: eof") {
		t.Fatal("mounted dashboard events stream did not end with eof")
	}
}

func TestServerInlinePayload(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1})

	// Round-trip a catalog design through designio to get a valid inline
	// payload, then place it via the server.
	spec := fastSpec()
	d, err := spec.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := designio.Write(&payload, d); err != nil {
		t.Fatal(err)
	}
	spec.Design = ""
	spec.Payload = payload.String()
	id := decodeJSON[map[string]string](t, postJSON(t, ts.URL+"/jobs", spec))["id"]
	view := waitViewDone(t, ts.URL, id)
	if view.Summary == nil || view.Summary.RouteIters == 0 {
		t.Fatalf("inline job summary = %+v", view.Summary)
	}
}

func waitViewDone(t *testing.T, base, id string) JobView {
	t.Helper()
	waitViewState(t, base, id, StateDone)
	return decodeJSON[JobView](t, mustGet(t, base+"/jobs/"+id))
}

// TestServerHardening pins the abuse-protection surface on POST /jobs:
// wrong media types are 415, oversized bodies are 413 (cut off by
// MaxBytesReader, not streamed in full), and the per-client rate limiter
// sheds with 503 + Retry-After once the burst is spent.
func TestServerHardening(t *testing.T) {
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	// Burst 2, negligible refill: the third submit in a row must shed.
	ts := httptest.NewServer(NewServerWith(m, ServerConfig{RatePerSec: 0.001, Burst: 2}).Handler())
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})

	resp, err := http.Post(ts.URL+"/jobs", "text/plain", strings.NewReader("design=tiny_hot"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain submit status = %d, want 415", resp.StatusCode)
	}

	// A payload past the MaxBytesReader cap (maxPayloadBytes + 1 MiB slack).
	huge := fmt.Sprintf(`{"payload": %q}`, strings.Repeat("a", maxPayloadBytes+2<<20))
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status = %d, want 413", resp.StatusCode)
	}

	// Burst spent (the two requests above drained the bucket): shed with
	// Retry-After so clients back off instead of piling on.
	resp = postJSON(t, ts.URL+"/jobs", fastSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-rate submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit shed carries no Retry-After header")
	}
	if got := statValue(t, m, "supervise.shed_requests"); got != 1 {
		t.Errorf("supervise.shed_requests = %v, want 1", got)
	}
}

// TestServerReadyAndStatus covers the probe split — /healthz is pure
// liveness, /readyz refuses new work with a reason when the queue is at
// cap — and /statusz exposing the supervision metrics.
func TestServerReadyAndStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1, MaxQueued: 1, Quantum: 1000})

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp := mustGet(t, ts.URL+probe)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d on an idle server", probe, resp.StatusCode)
		}
	}

	// One running + one queued job puts the queue at its cap: still alive,
	// no longer ready, and HTTP submits shed with 503 + Retry-After.
	postJSON(t, ts.URL+"/jobs", fastSpec()).Body.Close()
	postJSON(t, ts.URL+"/jobs", fastSpec()).Body.Close()
	resp := postJSON(t, ts.URL+"/jobs", fastSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-cap submit = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp = mustGet(t, ts.URL+"/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with a full queue, want 503", resp.StatusCode)
	}
	if resp := mustGet(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d; liveness must not follow readiness", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	metrics := decodeJSON[[]map[string]any](t, mustGet(t, ts.URL+"/statusz"))
	want := map[string]bool{
		"supervise.restarts": false, "supervise.quarantines": false,
		"supervise.stalls": false, "supervise.shed_requests": false,
		"supervise.active_workers": false, "supervise.queued_jobs": false,
		"supervise.heartbeat_age_ms": false,
	}
	for _, mt := range metrics {
		if name, _ := mt["name"].(string); name != "" {
			if _, ok := want[name]; ok {
				want[name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("/statusz missing %s", name)
		}
	}
}
