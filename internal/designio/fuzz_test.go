package designio

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// readBoth reads src with Read and with the strings.Fields reference and
// fails unless both make the same decision: the same error text, or
// reflect.DeepEqual designs.
func readBoth(t *testing.T, src []byte) {
	t.Helper()
	d, err := Read(bytes.NewReader(src))
	want, werr := readFields(bytes.NewReader(src))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("Read error %v, reference error %v", err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("Read error %q, reference error %q", err, werr)
	case err == nil && !reflect.DeepEqual(d, want):
		t.Fatal("Read and the reference read different designs")
	}
}

// FuzzRead feeds arbitrary bytes to the parser. The contract under fuzzing:
// Read never panics and decides every input as the strings.Fields reader
// did — the same error text, or an equal design — and any design it accepts
// is internally consistent: Validate passed (Read runs it), every float is
// finite, and the design round-trips through Write/Read, Write giving the
// fmt writer's bytes.
func FuzzRead(f *testing.F) {
	// Seed corpus: a valid design, each directive in isolation, the
	// malformed shapes the table test checks, and the line shapes the two
	// tokenizers must split alike (so the fuzzer starts near the
	// interesting boundaries rather than in random-byte space).
	valid := "design d\ndie 0 0 10 10\nrow 8 1\nroute 4 1\ndensity 0.9\n" +
		"cell a stdcell 5 5 1 8\ncell b stdcell 7 5 1 8\n" +
		"net n 1\npin 0 0 0 0\npin 1 0 0 0\nrail 0 0 10 0 0.5\n"
	seeds := []string{
		valid,
		"die 0 0 10 10\nrow 8 1\n",
		"# comment only\n",
		"die 0 0 NaN 10\n",
		"cell a stdcell 1 1 1 1\n",
		"pin 0 0 0 0\n",
		"die 0 0 10 10\nrow 8 1\nnet n nan\n",
		"die 0 0 10 10\nrow 8 1\ncell a stdcell 1e308 1e308 1e308 1e308\n",
		"design _\ndie -1e9 -1e9 1e9 1e9\nrow 8 1\n",
		// CRLF line ends, and a last line without a newline.
		strings.ReplaceAll(valid, "\n", "\r\n"),
		strings.TrimSuffix(valid, "\n"),
		"die 0 0 10 10\r\nrow 8 1\r\ncell a stdcell 1 1 1 1\r",
		// Unicode white space inside and around tokens, '\v' and '\f'.
		"die 0 0 10 10\nrow 8 1\n\u0085cell a stdcell 1 1 1 1 \n",
		" # comment\ndie 0 0 10 10\nrow 8 1\nnet n\u00851\n",
		"die 0 0 10 10\nrow 8 1\ncell a b stdcell 1 1 1 1\n",
		"die\v0\f0 10 10\nrow 8 1\n\v\f\n",
		"die 0 0 10 10\nrow 8 1\ncell \xff stdcell 1 1 1 1\ncell \xc2 stdcell 1 1 1 1\n",
		// A line longer than the scanner's initial 64 KiB buffer.
		"die 0 0 10 10\nrow 8 1\n# " + strings.Repeat("long ", 14000) + "\ncell a stdcell 1 1 1 1\n",
		// '#' in mid-line.
		"die 0 0 10 10 # corners\nrow 8 1\n",
		"die 0 0 10 10\nrow 8 1\ncell a# stdcell 1 1 1 1\n",
		// Hex, underscore, inf and nan numerals.
		"die 0x0 0 0x1p4 1_0\nrow 8 1\nroute 0x4 1\n",
		"die 0 0 10 10\nrow 8 1\ncell a stdcell 1_000 1 1 1\npin 0x0 0 0 0\n",
		"die 0 0 inf 10\nrow 8 1\n",
		"die 0 0 10 10\nrow +Inf 1\n",
		"die 0 0 10 10\nrow 8 1\nnet n NaN\n",
		"die 0 0 10 10\nrow 8 1\nroute 1_0 1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readBoth(t, data)
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panicking is not
		}
		for i := range d.Cells {
			c := &d.Cells[i]
			for _, v := range []float64{c.X, c.Y, c.W, c.H} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted design has non-finite cell %d: %+v", i, c)
				}
			}
		}
		var buf, ref bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("Write of accepted design failed: %v", err)
		}
		if err := writeFmt(&ref, d); err != nil {
			t.Fatalf("fmt reference Write failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatal("Write's bytes differ from the fmt reference's")
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("accepted design does not round-trip: %v", err)
		}
	})
}

// FuzzReadLine fuzzes single directives appended to a minimal valid prefix,
// concentrating coverage on per-directive field parsing; Read must decide
// each as the strings.Fields reader did.
func FuzzReadLine(f *testing.F) {
	for _, s := range []string{
		"cell a stdcell 1 1 1 1", "net n 1", "pin 0 0 0 0",
		"rail 0 0 1 0 1", "density 0.5", "route 4 1", "design x",
		"cell a stdcell 1 1 1 1", "net n  1", "route 0x4 1_0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		src := "die 0 0 10 10\nrow 8 1\n" + strings.ReplaceAll(line, "\x00", "") + "\n"
		readBoth(t, []byte(src))
	})
}
