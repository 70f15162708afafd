package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
)

// StripTimings canonicalizes a JSONL trace for run-to-run comparison:
// it removes the "dur_us" field from span_end events, drops "timing"
// events entirely, and drops metric events flagged "volatile" (the only
// wall-clock/environment content in a trace), re-encoding every remaining
// event with sorted keys. Two runs of the same deterministic placement —
// at ANY worker count, with or without live streaming attached — must
// produce byte-identical canonical traces.
func StripTimings(trace []byte) ([]byte, error) {
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", lineNo, err)
		}
		if m["ev"] == "timing" {
			continue
		}
		if m["ev"] == "metric" && m["volatile"] == true {
			continue
		}
		delete(m, "dur_us")
		enc, err := json.Marshal(m) // map keys marshal sorted: canonical
		if err != nil {
			return nil, err
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	return out.Bytes(), sc.Err()
}

// CanonicalMetrics returns the non-volatile metrics of a snapshot, in
// snapshot order: the part of a metric registry that the determinism
// contract covers. It is the registry counterpart of StripTimings — two
// runs of the same deterministic placement, at any worker count, must
// produce equal canonical metrics, while volatile gauges (realized worker
// count, busy/wall speedups) may differ from run to run.
func CanonicalMetrics(snap []Metric) []Metric {
	out := make([]Metric, 0, len(snap))
	for _, m := range snap {
		if !m.Volatile {
			out = append(out, m)
		}
	}
	return out
}
