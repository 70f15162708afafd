package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzControlLine drives arbitrary bytes through handleControl, the
// supervisor's reader of worker control lines, on an in-package Manager and
// running job with no worker process. Nothing may panic, and each field the
// handler owns moves only on its message: boundaryTotal on a boundary,
// lastCheckpoint on a boundary with ckpt set, endMsg on end, failMsg on
// fail.
func FuzzControlLine(f *testing.F) {
	// The lines muxWriter.control writes, as the supervisor hands them over:
	// without the '!' prefix, with the newline.
	var buf bytes.Buffer
	mux := &muxWriter{w: &buf}
	mux.control(ctlMsg{Type: "hb"})
	mux.control(ctlMsg{Type: "boundary", Point: "wirelength"})
	mux.control(ctlMsg{Type: "boundary", Point: "L2/route_iter:3", Ckpt: true})
	mux.control(ctlMsg{Type: "end", Summary: &Summary{HPWLFinal: 1.5e6, DRVs: 12, RouteIters: 6}})
	mux.control(ctlMsg{Type: "fail", Error: "core: no room for cell 7"})
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(line[1:])
		}
	}
	f.Add([]byte(`{"type":"boundary","ckpt":"yes"}`))
	f.Add([]byte(`{"type":"end","summary":null}`))
	f.Add([]byte(`{"type":"fail"}{"type":"end"}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, line []byte) {
		const total, ckpt = 5, "setup iter=0"
		m := &Manager{jobs: map[string]*job{}, sched: newSched(1, 1)}
		j := &job{jobRecord: jobRecord{ID: "j0001", State: StateRunning, Boundaries: total}, lastCheckpoint: ckpt}
		m.jobs[j.ID] = j
		m.sched.add(j.ID, 1, 0, 1)
		m.sched.decide()
		m.handleControl(j, line)

		var msg ctlMsg
		if json.Unmarshal(line, &msg) != nil {
			msg = ctlMsg{}
		}
		wantTotal, wantCkpt := total, ckpt
		var wantEnd *Summary
		var wantFail string
		switch msg.Type {
		case "boundary":
			wantTotal++
			if msg.Ckpt {
				wantCkpt = msg.Point
			}
		case "end":
			wantEnd = msg.Summary
		case "fail":
			wantFail = msg.Error
		}
		if j.Boundaries != wantTotal {
			t.Errorf("boundaryTotal %d, want %d", j.Boundaries, wantTotal)
		}
		if j.lastCheckpoint != wantCkpt {
			t.Errorf("lastCheckpoint %q, want %q", j.lastCheckpoint, wantCkpt)
		}
		if !reflect.DeepEqual(j.endMsg, wantEnd) {
			t.Errorf("endMsg %+v, want %+v", j.endMsg, wantEnd)
		}
		if j.failMsg != wantFail {
			t.Errorf("failMsg %q, want %q", j.failMsg, wantFail)
		}
	})
}
