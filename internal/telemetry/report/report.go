// Package report is the trace-analytics library over the JSONL telemetry
// stream of internal/telemetry: parsing, per-stage/per-series aggregation,
// the human-readable summary used by cmd/tracereport, and trace diffing
// (diff.go) used by `tracereport -diff` and the dashboard's A/B view.
//
// Parsing is tolerant: a malformed line is recorded with its line number
// in Trace.Malformed and skipped, so one corrupt line (a crashed run, a
// truncated write) never hides the rest of the report.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Event is one decoded JSONL trace line. Fields are populated per kind
// (see the telemetry package comment for the schema).
type Event struct {
	Seq    int64              `json:"seq"`
	Ev     string             `json:"ev"`
	Span   int                `json:"span,omitempty"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name,omitempty"`
	DurUS  int64              `json:"dur_us,omitempty"`
	Iter   int                `json:"iter,omitempty"`
	Msg    string             `json:"msg,omitempty"`
	F      map[string]float64 `json:"f,omitempty"`
	Kind   string             `json:"kind,omitempty"`
	Value  float64            `json:"value,omitempty"`
	Count  int64              `json:"count,omitempty"`
	Sum    float64            `json:"sum,omitempty"`
	Min    float64            `json:"min,omitempty"`
	Max    float64            `json:"max,omitempty"`
	P50    float64            `json:"p50,omitempty"`
	P95    float64            `json:"p95,omitempty"`
	P99    float64            `json:"p99,omitempty"`
	// NX, NY and Data carry "grid" events (quantized 2-D field snapshots;
	// Max doubles as the dequantization scale — decode with
	// telemetry.DecodeGridValues(Data, Max)).
	NX   int    `json:"nx,omitempty"`
	NY   int    `json:"ny,omitempty"`
	Data string `json:"data,omitempty"`
	// Volatile marks metric events excluded from the determinism
	// contract (speedups, worker counts); the report surfaces them with
	// a marker instead of dropping them.
	Volatile bool `json:"volatile,omitempty"`
}

// ParseEvent decodes one JSONL trace line.
func ParseEvent(line []byte) (Event, error) {
	var ev Event
	err := json.Unmarshal(line, &ev)
	return ev, err
}

// MalformedLine records one trace line that failed to parse.
type MalformedLine struct {
	Line int // 1-based line number in the input stream
	Err  error
}

// Trace is a fully parsed trace file.
type Trace struct {
	Events []Event
	// Stages aggregates span durations by name in first-seen order, with
	// tree depth, rebuilt from the span_start/span_end events.
	Stages []telemetry.StageTiming
	// SnapNames lists snapshot series names in first-seen order.
	SnapNames []string
	// Snaps holds the snapshot events of each series in stream order.
	Snaps map[string][]Event
	// GridNames lists grid series names in first-seen order; Grids holds
	// each series' events in stream order.
	GridNames []string
	Grids     map[string][]Event
	// Metrics holds the trailing metric dump, in stream order.
	Metrics []Event
	// Logs counts log + timing events.
	Logs int
	// Malformed lists the skipped unparseable lines (file:line context is
	// the caller's to add — ReadTrace only sees a stream).
	Malformed []MalformedLine
}

// ReadTrace parses a JSONL trace stream. Malformed lines are recorded in
// Trace.Malformed and skipped; only an I/O-level error fails the parse.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{Snaps: map[string][]Event{}, Grids: map[string][]Event{}}
	byKey := map[string]int{}
	depthOf := map[int]int{} // span id -> depth
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := ParseEvent(line)
		if err != nil {
			t.Malformed = append(t.Malformed, MalformedLine{Line: lineNo, Err: err})
			continue
		}
		t.Events = append(t.Events, ev)
		switch ev.Ev {
		case "span_start":
			depth := 0
			if d, ok := depthOf[ev.Parent]; ok {
				depth = d + 1
			}
			depthOf[ev.Span] = depth
			if _, ok := byKey[ev.Name]; !ok {
				byKey[ev.Name] = len(t.Stages)
				t.Stages = append(t.Stages, telemetry.StageTiming{Name: ev.Name, Depth: depth})
			}
		case "span_end":
			if i, ok := byKey[ev.Name]; ok {
				t.Stages[i].Count++
				t.Stages[i].Total += time.Duration(ev.DurUS) * time.Microsecond
			}
		case "snap":
			if _, ok := t.Snaps[ev.Name]; !ok {
				t.SnapNames = append(t.SnapNames, ev.Name)
			}
			t.Snaps[ev.Name] = append(t.Snaps[ev.Name], ev)
		case "grid":
			if _, ok := t.Grids[ev.Name]; !ok {
				t.GridNames = append(t.GridNames, ev.Name)
			}
			t.Grids[ev.Name] = append(t.Grids[ev.Name], ev)
		case "metric":
			t.Metrics = append(t.Metrics, ev)
		case "log", "timing":
			t.Logs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: reading trace: %w", err)
	}
	return t, nil
}

// StageLevel splits a multilevel stage or span name into its hierarchy
// level and bare name: "L2/wirelength" → (2, "wirelength"). Flat names and
// malformed prefixes are level 0 with the name unchanged.
func StageLevel(name string) (int, string) {
	if rest, ok := strings.CutPrefix(name, "L"); ok {
		if lvl, bare, found := strings.Cut(rest, "/"); found {
			if n, err := strconv.Atoi(lvl); err == nil && n >= 1 {
				return n, bare
			}
		}
	}
	return 0, name
}

// LevelGroup is one hierarchy level's slice of the per-stage timing table;
// Stages carry the bare (prefix-stripped) names.
type LevelGroup struct {
	Level  int
	Stages []telemetry.StageTiming
}

// LevelStages groups the per-stage timings by multilevel hierarchy level,
// coarsest level first — the order a multilevel run executes them. A flat
// trace yields a single level-0 group identical to Trace.Stages.
func (t *Trace) LevelStages() []LevelGroup {
	byLevel := map[int][]telemetry.StageTiming{}
	var levels []int
	for _, s := range t.Stages {
		lvl, bare := StageLevel(s.Name)
		if _, ok := byLevel[lvl]; !ok {
			levels = append(levels, lvl)
		}
		s.Name = bare
		byLevel[lvl] = append(byLevel[lvl], s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	groups := make([]LevelGroup, 0, len(levels))
	for _, lvl := range levels {
		groups = append(groups, LevelGroup{Level: lvl, Stages: byLevel[lvl]})
	}
	return groups
}

// RootTotal returns the summed duration of the top-level (depth 0) spans.
func (t *Trace) RootTotal() time.Duration {
	var total time.Duration
	for _, s := range t.Stages {
		if s.Depth == 0 {
			total += s.Total
		}
	}
	return total
}

// FinalMetrics returns the last metric event per name (a resumed run's
// concatenated trace can hold two dumps; the later one wins).
func (t *Trace) FinalMetrics() map[string]Event {
	out := make(map[string]Event, len(t.Metrics))
	for _, m := range t.Metrics {
		out[m.Name] = m
	}
	return out
}

// sparkLevels are the ASCII intensity steps of a sparkline, low to high.
const sparkLevels = " .:-=+*#%@"

// Sparkline renders vals as a fixed-width ASCII intensity strip,
// min-max normalized; wider series are mean-downsampled into width
// columns. An empty series renders as an empty string.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	// Downsample (or keep) into at most width column means.
	cols := width
	if len(vals) < cols {
		cols = len(vals)
	}
	col := make([]float64, cols)
	for i := range col {
		lo := i * len(vals) / cols
		hi := (i + 1) * len(vals) / cols
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for _, v := range vals[lo:hi] {
			s += v
		}
		col[i] = s / float64(hi-lo)
	}
	mn, mx := col[0], col[0]
	for _, v := range col {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	var sb strings.Builder
	n := len(sparkLevels) - 1
	for _, v := range col {
		k := n / 2
		if mx > mn {
			// Halving keeps the span finite for any finite values (it
			// rounds exactly as the unhalved form would); a NaN level,
			// from a column mean that overflowed, draws the lowest one.
			f := (v/2 - mn/2) / (mx/2 - mn/2) * float64(n)
			k = 0
			if f >= 0 {
				k = min(int(f), n)
			}
		}
		sb.WriteByte(sparkLevels[k])
	}
	return sb.String()
}

// WriteReport renders the human-readable trace summary: the per-stage
// timing table, convergence sparklines for every snapshot series, and
// the final metrics dump (histograms with p50/p95/p99).
func (t *Trace) WriteReport(w io.Writer) {
	root := t.RootTotal()
	fmt.Fprintf(w, "trace: %d events, %d stages, %d snapshot series, %d log lines",
		len(t.Events), len(t.Stages), len(t.SnapNames), t.Logs)
	if n := len(t.Malformed); n > 0 {
		fmt.Fprintf(w, ", %d malformed lines skipped", n)
	}
	fmt.Fprintf(w, "\n\n")

	groups := t.LevelStages()
	for gi, g := range groups {
		if gi > 0 {
			fmt.Fprintln(w)
		}
		switch {
		case len(groups) == 1 && g.Level == 0:
			// Flat trace: the classic single table, byte-identical to
			// reports from before the multilevel flow existed.
			fmt.Fprintf(w, "Per-stage timing\n")
		case g.Level == 0:
			fmt.Fprintf(w, "Per-stage timing — level 0 (finest, total %s)\n", fmtDur(levelTotal(g)))
		default:
			fmt.Fprintf(w, "Per-stage timing — level %d (coarse, total %s)\n", g.Level, fmtDur(levelTotal(g)))
		}
		fmt.Fprintf(w, "  %-34s %7s %12s %12s %7s\n", "stage", "count", "total", "avg", "%root")
		for _, s := range g.Stages {
			indent := strings.Repeat("  ", s.Depth)
			avg := time.Duration(0)
			if s.Count > 0 {
				avg = s.Total / time.Duration(s.Count)
			}
			pct := 0.0
			if root > 0 {
				pct = 100 * float64(s.Total) / float64(root)
			}
			fmt.Fprintf(w, "  %-34s %7d %12s %12s %6.1f%%\n",
				indent+s.Name, s.Count, fmtDur(s.Total), fmtDur(avg), pct)
		}
	}

	for _, name := range t.SnapNames {
		events := t.Snaps[name]
		fmt.Fprintf(w, "\nConvergence: %s (%d samples)\n", name, len(events))
		for _, key := range snapFieldKeys(events) {
			vals := make([]float64, 0, len(events))
			for _, ev := range events {
				if v, ok := ev.F[key]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-16s |%s| first %-11s last %-11s\n",
				key, Sparkline(vals, 60), fmtVal(vals[0]), fmtVal(vals[len(vals)-1]))
		}
	}

	for _, name := range t.GridNames {
		events := t.Grids[name]
		last := events[len(events)-1]
		fmt.Fprintf(w, "\nGrid series: %s (%d frames, %dx%d, final max %s)\n",
			name, len(events), last.NX, last.NY, fmtVal(last.Max))
	}

	if len(t.Metrics) > 0 {
		fmt.Fprintf(w, "\nMetrics\n")
		for _, m := range t.Metrics {
			kind := m.Kind
			if m.Volatile {
				// Worker counts, measured speedups and other
				// machine-dependent gauges: shown, but flagged as outside
				// the determinism contract.
				kind += "*"
			}
			switch m.Kind {
			case "histogram":
				fmt.Fprintf(w, "  %-34s %-9s n=%-7d mean=%-11s p50=%-11s p95=%-11s p99=%-11s min=%-11s max=%s\n",
					m.Name, kind, m.Count, fmtVal(m.Value),
					fmtVal(m.P50), fmtVal(m.P95), fmtVal(m.P99),
					fmtVal(m.Min), fmtVal(m.Max))
			default:
				fmt.Fprintf(w, "  %-34s %-9s %s\n", m.Name, kind, fmtVal(m.Value))
			}
		}
		if hasVolatile(t.Metrics) {
			fmt.Fprintf(w, "  (* volatile: wall-clock/environment metric, excluded from canonical traces)\n")
		}
	}
}

// snapFieldKeys returns the union of field names of a snapshot series,
// sorted (JSON decoding loses the original field order).
func snapFieldKeys(events []Event) []string {
	seen := map[string]bool{}
	var keys []string
	for _, ev := range events {
		for k := range ev.F {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// levelTotal is the summed duration of one level group's depth-0 spans.
func levelTotal(g LevelGroup) time.Duration {
	var total time.Duration
	for _, s := range g.Stages {
		if s.Depth == 0 {
			total += s.Total
		}
	}
	return total
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtVal(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	if a != 0 && (a >= 1e6 || a < 1e-3) {
		return fmt.Sprintf("%.3e", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func hasVolatile(ms []Event) bool {
	for _, m := range ms {
		if m.Volatile {
			return true
		}
	}
	return false
}
