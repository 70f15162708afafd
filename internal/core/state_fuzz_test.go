package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// seedCheckpoint runs a minimal placement to the cheapest scheduled stop and
// returns the raw bytes of a genuine checkpoint file.
func seedCheckpoint(tb testing.TB, dir string) []byte {
	tb.Helper()
	ckPath := filepath.Join(dir, "seed.ckpt")
	d := synth.MustGenerate("tiny_open")
	opt := fastOpts(ModeOurs)
	opt.Workers = 1
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "setup"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		tb.Fatalf("seed checkpoint run returned %v", err)
	}
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestCheckpointMalformedInputs pins the typed-error contract of the reader:
// integrity failures (truncation, bit rot, garbage) are ErrCheckpointCorrupt
// — the class the .prev fallback retries — while semantic mismatches (wrong
// design) and format mismatches (another build's version or records) are
// plain errors, because retrying another file cannot fix them.
func TestCheckpointMalformedInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("placement run for the seed checkpoint; skipped in -short")
	}
	raw := seedCheckpoint(t, t.TempDir())

	corrupt := map[string][]byte{
		"empty":             {},
		"no trailing nl":    []byte("nmckpt 2"),
		"header only":       []byte("nmckpt 2\n"),
		"truncated half":    raw[:len(raw)/2],
		"truncated minus 1": raw[:len(raw)-1],
		"garbage":           []byte("not a checkpoint\nat all\n"),
		"crc line garbage":  append(append([]byte{}, raw[:len(raw)-13]...), []byte("crc zzzzzzzz\n")...),
	}
	// One flipped byte in the middle of the body must trip the CRC.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	corrupt["flipped byte"] = flipped

	for name, data := range corrupt {
		if _, err := readCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}

	// Wrong design: fingerprint mismatch is NOT corruption.
	other := synth.MustGenerate("tiny_hot")
	_, err := ResumeContext(context.Background(), other, bytes.NewReader(raw), Options{Workers: 1})
	if err == nil {
		t.Error("resume on wrong design accepted")
	} else if errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("design mismatch misclassified as corruption: %v", err)
	}

	// Format mismatches, CRC-valid (the footer is rebuilt) — not corruption:
	// a .prev fallback must not mask a version skew or another build's
	// record set.
	body := raw[:bytes.LastIndex(raw, []byte("crc "))]
	end := bytes.LastIndex(body, []byte("end\n"))
	foreign := withCRC(append(append(append([]byte(nil), body[:end]...), "predict 1 0.5\n"...), body[end:]...))
	for name, data := range map[string][]byte{
		"version 99":     withCRC(bytes.Replace(body, []byte("nmckpt 2\n"), []byte("nmckpt 99\n"), 1)),
		"unknown record": foreign,
		// A rewrite would put the record back with zero fields: not the
		// checkpoint that was read.
		"missing record": withCRC(bytes.Replace(body, []byte("\nresult "), []byte("\n# result "), 1)),
	} {
		if _, err := readCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: checkpoint accepted", name)
		} else if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: misclassified as corruption: %v", name, err)
		}
	}

	// A sound .prev beside the foreign checkpoint must stay unread:
	// falling back would resume and succeed.
	dir := t.TempDir()
	path := filepath.Join(dir, "foreign.ckpt")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".prev", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := fastOpts(ModeOurs)
	opt.Workers = 1
	_, err = ResumeFromFile(context.Background(), synth.MustGenerate("tiny_open"), path, opt)
	if err == nil || errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), `unknown record "predict"`) {
		t.Errorf("resume from a foreign-format checkpoint: got %v, want the format error", err)
	}
}

// withCRC returns body followed by its crc footer.
func withCRC(body []byte) []byte {
	var buf bytes.Buffer
	buf.Write(body)
	fmt.Fprintf(&buf, "crc %08x\n", crc32.ChecksumIEEE(body))
	return buf.Bytes()
}

// FuzzReadCheckpoint: the parser must never panic on arbitrary bytes, and
// anything it accepts must survive a write→reparse round trip. Each input
// is a checkpoint body that gets its crc footer before the read: a mutated
// file would almost never match its footer, and verifyChecksum would reject
// it before parseCheckpoint saw a byte (TestCheckpointMalformedInputs
// covers the footer). The seed is compactBody's, not the 39 KB file: every
// exec and every minimization step parses the whole input.
func FuzzReadCheckpoint(f *testing.F) {
	// Prefer the checked-in seed: every fuzz worker process replays this
	// setup, and generating a checkpoint means running a placement.
	raw, err := os.ReadFile(filepath.Join("testdata", "seed.ckpt"))
	if err != nil {
		raw = seedCheckpoint(f, f.TempDir())
	}
	f.Add(compactBody(f, raw))
	f.Add([]byte(""))
	f.Add([]byte("nmckpt 2\n"))
	f.Add([]byte("nmckpt 2\nend\n"))
	f.Add([]byte("not a checkpoint\n"))
	f.Add([]byte("nmckpt 2\nvec u 3 0 1 2\nend\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := readCheckpoint(bytes.NewReader(withCRC(body)))
		if err != nil {
			return // rejection (typed or not) is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := writeCheckpoint(&buf, ck); err != nil {
			t.Fatalf("accepted checkpoint does not re-serialize: %v", err)
		}
		if _, err := readCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-serialized checkpoint does not reparse: %v", err)
		}
	})
}

// compactBody rewrites the checkpoint raw as a body that carries every
// record kind — raw's own plus the multilevel, guard, routability-loop and
// telemetry ones — with each vector cut to two values, so mutations reach
// every record's decoder without wading through kilobytes of floats.
func compactBody(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	ck, err := readCheckpoint(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	ck.Tel = &telemetry.ObserverState{Seq: 9, NextSpanID: 2,
		OpenSpans: []telemetry.SpanState{{ID: 1, Name: "place"}},
		Stages:    []telemetry.StageTiming{{Name: "setup", Count: 1, Total: 5}},
		Metrics: []telemetry.MetricState{{Kind: "counter", Name: "c", Counter: 1},
			{Kind: "gauge", Name: "g", GaugeSet: true, Gauge: 0.5},
			{Kind: "histogram", Name: "h", Count: 1, Sum: 1, Min: 1, Max: 1, Buckets: make([]int64, telemetry.HistogramBuckets)}}}
	ck.ML, ck.Opt.Levels, ck.MLTop, ck.MLLevel, ck.MLCells = true, 2, 1, 1, 2
	ck.Opt.Guard.Policy = guard.Recover
	ck.HasGP, ck.HasLoop, ck.HasCong, ck.Infl.Scheme = true, true, true, "momentum"
	for _, r := range ck.records() {
		for _, fld := range r.fields {
			if v, ok := fld.(*[]float64); ok {
				*v = []float64{1, 2}
			}
		}
	}
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, ck); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[:bytes.LastIndex(buf.Bytes(), []byte("crc "))]
}
