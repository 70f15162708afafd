package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/synth"
)

// FuzzSpec drives arbitrary bytes across the submit trust boundary the way
// the server does: the handler's decoder (unknown fields refused), then
// Validate, then BuildDesign for an accepted spec. Nothing may panic, and
// an accepted spec must be inside the caps that keep one job from taking
// the daemon's memory or a worker's time.
func FuzzSpec(f *testing.F) {
	// The specs the job tests submit. The inline tiny_hot payload of
	// TestServerInlinePayload is left out: it is 130 KB, and the fuzzer
	// would spend its time minimizing mutants of it; the 40-cell overfull
	// payload covers the inline path.
	for _, s := range []Spec{
		fastSpec(),
		{Payload: overfullPayload(f), Mode: "xplace", MaxWLIters: 2, MaxRouteIters: 1},
		{},
		{Design: "tiny_hot", Payload: "x"},
		{Design: "no_such"},
		{Design: "tiny_hot", Mode: "quantum"},
		{Payload: "not a design"},
		{Design: "tiny_hot", Workers: -1},
		{Design: "tiny_hot", Priority: 10_000},
		{Design: "tiny_hot", GridHint: 8192},
		{Design: "tiny_hot", MaxWLIters: maxWLIters + 1},
		{Design: "tiny_hot", MaxRouteIters: maxRouteIters + 1},
		{Design: "tiny_hot", StepsPerRouteIter: maxStepsPerRouteIter + 1},
		{Design: "tiny_open", Mode: "xplace-route", Levels: 2, ClusterMaxSize: -1, NoDC: true},
	} {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"design":"tiny_hot","bogus":1}`))
	f.Add([]byte(`{"grid":-1,"levels":9}`))
	f.Add([]byte(`null`))

	// Catalog designs are built once per name; the 100k–1M-cell families
	// are left out, since generating them takes seconds and gigabytes and
	// no spec byte changes what they contain.
	built, big := map[string]bool{}, map[string]bool{}
	for _, n := range synth.BigDesigns() {
		big[n] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if spec.GridHint < 0 || spec.GridHint > maxGridHint ||
			spec.MaxWLIters < 0 || spec.MaxWLIters > maxWLIters ||
			spec.MaxRouteIters < 0 || spec.MaxRouteIters > maxRouteIters ||
			spec.StepsPerRouteIter < 0 || spec.StepsPerRouteIter > maxStepsPerRouteIter ||
			spec.Levels < 0 || spec.Levels > 8 || spec.Workers < 0 ||
			len(spec.Payload) > maxPayloadBytes {
			t.Fatalf("accepted spec outside the caps: %+v", spec)
		}
		spec.coreOptions()
		if spec.Design != "" {
			if big[spec.Design] || built[spec.Design] {
				return
			}
			built[spec.Design] = true
		}
		if d, err := spec.BuildDesign(); err == nil && d == nil {
			t.Fatal("BuildDesign returned neither a design nor an error")
		}
	})
}
