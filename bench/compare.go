package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// benchSpec is BENCHMARK.json: the command, the workloads and every metric
// with its unit, direction and (end-to-end only) regression bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict applies one end-to-end metric's bound to one or more base
// measurements (repeated sets of the base commit) and a new one. The run
// cannot tell a change from noise, and the verdict is unresolved, when any
// run's own p25–p75 spread is wider than the bound, or when the base sets'
// medians differ among themselves by more than the bound: drift between
// host periods would otherwise read as a change. Otherwise the new median is
// judged against the median of the base medians.
func verdict(ms metricSpec, bases []metric, cur metric) string {
	base, drift := baseMedian(bases)
	unresolved := cur.spread() > ms.Bound || drift > ms.Bound
	for _, b := range bases {
		unresolved = unresolved || b.spread() > ms.Bound
	}
	if unresolved {
		return "unresolved"
	}
	worse := (cur.Value - base) / base
	if ms.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > ms.Bound:
		return "regressed"
	case worse < -ms.Bound:
		return "improved"
	}
	return "unchanged"
}

// baseMedian returns the median of the base sets' medians, and how far
// apart those medians lie as a share of it.
func baseMedian(bases []metric) (value, drift float64) {
	meds := make([]float64, len(bases))
	for i, b := range bases {
		meds[i] = b.Value
	}
	value = median(meds)
	if value != 0 {
		drift = (slices.Max(meds) - slices.Min(meds)) / math.Abs(value)
	}
	return value, drift
}

// runCompare prints, per workload and end-to-end metric, whether the new
// results (the last path) improved, held or regressed against the base sets
// (every other path) within the metric's bound, and the per-layer metrics
// side by side. It refuses results from different hosts or seeds, and exits
// 1 when anything regressed.
func runCompare(specPath string, paths []string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	sets := make([]*results, len(paths))
	for i, p := range paths {
		if sets[i], err = readResults(p); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	bases, cur := sets[:len(sets)-1], sets[len(sets)-1]
	for i, b := range bases {
		switch {
		case b.Host != cur.Host:
			fmt.Fprintf(stderr, "bench: refusing to compare results from different hosts:\n  %s: %+v\n  %s: %+v\n",
				paths[i], b.Host, paths[len(paths)-1], cur.Host)
			return 2
		case b.Seed != cur.Seed:
			// Another seed is another set of netlists: its times differ
			// without any change to the program.
			fmt.Fprintf(stderr, "bench: refusing to compare results of different seeds: %s has seed %d, %s seed %d\n",
				paths[i], b.Seed, paths[len(paths)-1], cur.Seed)
			return 2
		}
	}
	var names []string
	for name := range cur.Workloads {
		inAll := true
		for _, b := range bases {
			_, ok := b.Workloads[name]
			inAll = inAll && ok
		}
		if inAll {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "seed %d: %d base set(s) of %s  vs  new %s\n", cur.Seed, len(bases), bases[0].Commit, cur.Commit)
	regressed := false
	row := func(name string, ms metricSpec, b, c float64, v string) {
		change := 0.0
		if b != 0 {
			change = 100 * (c - b) / b
		}
		fmt.Fprintf(stdout, "%-12s %-28s %12.6g %12.6g %-6s %+7.1f%%  %s\n", name, ms.Name, b, c, ms.Unit, change, v)
	}
	// lookup returns the metric in every base set and in the new one.
	lookup := func(name, metricName string) ([]metric, metric, bool) {
		var bs []metric
		for _, b := range bases {
			m, ok := b.Workloads[name].Metrics[metricName]
			if !ok {
				return nil, metric{}, false
			}
			bs = append(bs, m)
		}
		c, ok := cur.Workloads[name].Metrics[metricName]
		return bs, c, ok
	}
	for _, name := range names {
		for _, ms := range spec.EndToEnd {
			bs, c, ok := lookup(name, ms.Name)
			if !ok {
				continue
			}
			v := verdict(ms, bs, c)
			regressed = regressed || v == "regressed"
			b, _ := baseMedian(bs)
			row(name, ms, b, c.Value, fmt.Sprintf("%s (bound %g%%)", v, 100*ms.Bound))
		}
		for _, ms := range spec.PerLayer {
			if bs, c, ok := lookup(name, ms.Name); ok {
				b, _ := baseMedian(bs)
				row(name, ms, b, c.Value, "per-layer")
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}
