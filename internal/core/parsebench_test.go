package core

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func BenchmarkReadSeedCheckpoint(b *testing.B) {
	raw, err := os.ReadFile("testdata/seed.ckpt")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readCheckpoint(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteCheckpoint encodes fft_1's checkpoint after route
// iteration 1, one with every loop vector, as the job worker writes at each
// boundary.
func BenchmarkWriteCheckpoint(b *testing.B) {
	raw, err := os.ReadFile(checkpointWith(b, "fft_1", "route_iter:1", Options{Mode: ModeOurs, Tech: AllTechniques()}))
	if err != nil {
		b.Fatal(err)
	}
	ck, err := readCheckpoint(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeCheckpoint(io.Discard, ck); err != nil {
			b.Fatal(err)
		}
	}
}
