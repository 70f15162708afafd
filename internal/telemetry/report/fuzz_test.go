package report

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, the parser of the
// worker trace JSONL that placed relays and tracereport and the dashboard
// read. It must never panic; each non-empty line yields at most one event
// or one malformed-line record; and rendering the result must not panic.
func FuzzReadTrace(f *testing.F) {
	f.Add(emitTrace(f, 2, 20))
	f.Add([]byte("this is not json\n"))
	f.Add([]byte(`{"seq": truncated...` + "\n"))
	f.Add([]byte("\n \r\n\t\n"))
	f.Add([]byte(`{"seq":1,"ev":"span_end","name":"place","dur_us":-9223372036854775808}` + "\n"))
	f.Add([]byte(`{"seq":1,"ev":"grid","name":"g","nx":3,"ny":-2,"max":1,"data":"zz"}` + "\n"))
	f.Add([]byte(`{"seq":1,"ev":"snap","name":"x","f":{"a":-1.7e308}}` + "\n" +
		`{"seq":2,"ev":"snap","name":"x","iter":1,"f":{"a":1.7e308}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		lines := 0
		for _, ln := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				lines++
			}
		}
		if got := len(tr.Events) + len(tr.Malformed); got > lines {
			t.Fatalf("%d events and malformed records from %d non-empty lines", got, lines)
		}
		tr.WriteReport(io.Discard)
	})
}
