package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestVolatileGaugeFlaggedInSnapshot(t *testing.T) {
	r := NewRegistry()
	r.VolatileGauge("parallel.route.speedup").Set(3.7)
	r.Gauge("place.hpwl_final").Set(123)
	byName := map[string]Metric{}
	for _, m := range r.Snapshot() {
		byName[m.Name] = m
	}
	if !byName["parallel.route.speedup"].Volatile {
		t.Errorf("volatile gauge not flagged in snapshot")
	}
	if byName["place.hpwl_final"].Volatile {
		t.Errorf("plain gauge flagged volatile")
	}
	// Re-resolving the same name through Gauge keeps the flag.
	r.Gauge("parallel.route.speedup").Set(4.1)
	for _, m := range r.Snapshot() {
		if m.Name == "parallel.route.speedup" && !m.Volatile {
			t.Errorf("volatile flag lost after plain Gauge resolution")
		}
	}
}

func TestStripTimingsDropsVolatileMetrics(t *testing.T) {
	var buf bytes.Buffer
	obs := NewObserver(&buf)
	obs.Gauge("place.hpwl_final").Set(42)
	obs.VolatileGauge("parallel.workers").Set(8)
	obs.VolatileGauge("parallel.route.speedup").Set(3.2)
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.Contains(raw, `"volatile":true`) {
		t.Fatalf("flush did not emit the volatile flag:\n%s", raw)
	}
	canon, err := StripTimings(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s := string(canon)
	if strings.Contains(s, "parallel.workers") || strings.Contains(s, "speedup") {
		t.Errorf("canonical trace still contains volatile metrics:\n%s", s)
	}
	if !strings.Contains(s, "place.hpwl_final") {
		t.Errorf("canonical trace lost a non-volatile metric:\n%s", s)
	}
}

func TestVolatileGaugeNilSafety(t *testing.T) {
	var r *Registry
	r.VolatileGauge("x").Set(1) // must not panic
	var o *Observer
	o.VolatileGauge("y").Set(2) // must not panic
}

func TestCanonicalMetricsDropsOnlyVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("route.calls").Add(6)
	r.Gauge("place.hpwl_final").Set(123.5)
	r.Histogram("route.round_segments").Observe(40)
	r.VolatileGauge("parallel.workers").Set(2)
	r.VolatileGauge("parallel.route.speedup").Set(1.52)
	snap := r.Snapshot()

	// Snapshot orders by (volatile, kind, name), so its first three
	// entries are the non-volatile metrics in snapshot order.
	got := CanonicalMetrics(snap)
	want := []string{"route.calls", "place.hpwl_final", "route.round_segments"}
	if len(got) != len(want) {
		t.Fatalf("got %d canonical metrics, want %d:\n%+v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("canonical metric %d is %q, want %q", i, got[i].Name, name)
		}
		if got[i] != snap[i] {
			t.Errorf("canonical metric %d = %+v, snapshot has %+v", i, got[i], snap[i])
		}
	}
}
