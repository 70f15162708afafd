package designio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func TestRoundTrip(t *testing.T) {
	orig := synth.MustGenerate("tiny_hot")
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q != %q", got.Name, orig.Name)
	}
	if got.Die != orig.Die || got.RowHeight != orig.RowHeight || got.SiteWidth != orig.SiteWidth {
		t.Errorf("geometry differs")
	}
	if got.RouteLayers != orig.RouteLayers || got.RouteCapScale != orig.RouteCapScale ||
		got.TargetDensity != orig.TargetDensity {
		t.Errorf("routing/density params differ")
	}
	if len(got.Cells) != len(orig.Cells) || len(got.Nets) != len(orig.Nets) ||
		len(got.Pins) != len(orig.Pins) || len(got.Rails) != len(orig.Rails) {
		t.Fatalf("counts differ: %d/%d cells, %d/%d nets, %d/%d pins, %d/%d rails",
			len(got.Cells), len(orig.Cells), len(got.Nets), len(orig.Nets),
			len(got.Pins), len(orig.Pins), len(got.Rails), len(orig.Rails))
	}
	for i := range orig.Cells {
		a, b := &orig.Cells[i], &got.Cells[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.X != b.X || a.Y != b.Y ||
			a.W != b.W || a.H != b.H || a.NumPins != b.NumPins {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range orig.Pins {
		if orig.Pins[i] != got.Pins[i] {
			t.Fatalf("pin %d differs", i)
		}
	}
	if orig.HPWL() != got.HPWL() {
		t.Errorf("HPWL differs after round trip")
	}
}

func TestWriteDeterministic(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	var a, b bytes.Buffer
	if err := Write(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("serialization not deterministic")
	}
}

func TestReadHandwritten(t *testing.T) {
	src := `
# a tiny hand-written design
design demo
die 0 0 100 100
row 8 1
route 4 0.9
density 0.8
cell a stdcell 10 10 2 8
cell b stdcell 50 50 4 8
cell blk macro 80 80 20 20
net n1 1
pin 0 0 0 0
pin 1 0 -1 2
rail 0 20 100 20 1.5
`
	d, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" || len(d.Cells) != 3 || len(d.Nets) != 1 || len(d.Pins) != 2 || len(d.Rails) != 1 {
		t.Fatalf("parsed wrong structure: %+v", d)
	}
	if d.Cells[2].Kind.String() != "macro" {
		t.Errorf("macro kind lost")
	}
	if d.Nets[0].Degree() != 2 {
		t.Errorf("net wiring lost")
	}
	if d.RouteCapScale != 0.9 || d.TargetDensity != 0.8 {
		t.Errorf("params lost")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "die 0 0 10 10\nfrobnicate 1\n",
		"bad die":           "die 0 0 ten 10\n",
		"bad cell kind":     "die 0 0 10 10\nrow 8 1\ncell a widget 1 1 1 1\n",
		"pin bad cell":      "die 0 0 10 10\nrow 8 1\nnet n 1\npin 5 0 0 0\n",
		"pin bad net":       "die 0 0 10 10\nrow 8 1\ncell a stdcell 1 1 1 1\npin 0 7 0 0\n",
		"missing die":       "row 8 1\n",
		"short cell":        "die 0 0 10 10\nrow 8 1\ncell a stdcell 1 1\n",
		"bad net weight":    "die 0 0 10 10\nrow 8 1\nnet n one\n",
		"invalid design":    "design d\ndie 0 0 10 10\nrow 0 1\n", // zero row height fails Validate
		// strconv.ParseFloat accepts "NaN"/"Inf"; the reader must not.
		"NaN die corner":  "die 0 0 NaN 10\nrow 8 1\n",
		"NaN cell coord":  "die 0 0 10 10\nrow 8 1\ncell a stdcell NaN 1 1 1\n",
		"Inf cell width":  "die 0 0 10 10\nrow 8 1\ncell a stdcell 1 1 +Inf 1\n",
		"NaN net weight":  "die 0 0 10 10\nrow 8 1\nnet n nan\n",
		"Inf pin offset":  "die 0 0 10 10\nrow 8 1\ncell a stdcell 1 1 1 1\nnet n 1\npin 0 0 Inf 0\n",
		"NaN row height":  "die 0 0 10 10\nrow NaN 1\n",
		"Inf density":     "die 0 0 10 10\nrow 8 1\ndensity Inf\n",
		"NaN rail width":  "die 0 0 10 10\nrow 8 1\nrail 0 0 10 0 NaN\n",
		"truncated cell":  "die 0 0 10 10\nrow 8 1\ncell a std",
		"truncated float": "die 0 0 10 10\nrow 8 1\ncell a stdcell 1 1 1 1e",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEscapeNames: a name holding any rune Read splits on — ASCII white
// space, U+0085, U+00A0, U+2003 — is written as one token with '_' in each
// such rune's place, for cells, nets and the design alike; a name without
// one keeps its bytes.
func TestEscapeNames(t *testing.T) {
	names := map[string]string{
		"has space":     "has_space",
		"tab\there":     "tab_here",
		"cr\rlf\n":      "cr_lf_",
		"vt\vff\f":      "vt_ff_",
		"nel\u0085x":    "nel_x",
		"nbsp\u00a0x":   "nbsp_x",
		"em\u2003space": "em_space",
		"\u00a0":        "_",
		"":              "_",
		"plain_µ#1":     "plain_µ#1",
	}
	for name, want := range names {
		d := synth.MustGenerate("tiny_open")
		d.Name, d.Cells[0].Name, d.Nets[0].Name = name, name, name
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%q: Read after escaping: %v", name, err)
		}
		if got.Name != want || got.Cells[0].Name != want || got.Nets[0].Name != want {
			t.Errorf("%q read back as design %q, cell %q, net %q; want %q",
				name, got.Name, got.Cells[0].Name, got.Nets[0].Name, want)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "\n# comment\n\ndesign x\ndie 0 0 10 10\nrow 8 1\n\n# more\ncell a stdcell 5 5 1 8\nnet n 1\npin 0 0 0 0\n"
	if _, err := Read(strings.NewReader(src)); err != nil {
		t.Fatalf("comments/blank lines rejected: %v", err)
	}
}

// catalogSizeLimit bounds the catalog designs the reference tests walk:
// every design up to superblue1_big's 100k cells; the 250k–1M-cell _big
// designs would hold hundreds of MiB.
const catalogSizeLimit = 150_000

// forCatalog calls check on every catalog design within catalogSizeLimit
// cells (only those under 10k cells with -short), as generated and, for
// those under 20k cells, again after eight wirelength-driven Nesterov steps.
func forCatalog(t *testing.T, check func(t *testing.T, d *netlist.Design)) {
	catalog := synth.Catalog()
	for _, name := range synth.Names() {
		p := catalog[name]
		if p.NumCells > catalogSizeLimit || testing.Short() && p.NumCells > 10_000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			d := synth.MustGenerate(name)
			check(t, d)
			if p.NumCells > 20_000 {
				return
			}
			opt := core.Options{Mode: core.ModeWirelength, MaxWLIters: 8, SkipLegalize: true,
				SkipDetailed: true, Workers: 1}
			if _, err := core.PlaceContext(context.Background(), d, opt); err != nil {
				t.Fatalf("short placement: %v", err)
			}
			check(t, d)
		})
	}
}

// specialDesign holds the values whose %g and %d forms are easiest to get
// wrong: ±0, subnormals, the float64 extremes, the exponent switch-over
// points and negative integers.
func specialDesign(t *testing.T) *netlist.Design {
	t.Helper()
	sub := math.Float64frombits(1)
	vals := []float64{0, math.Copysign(0, -1), sub, -sub, math.Float64frombits(0x000fffffffffffff),
		math.SmallestNonzeroFloat64 * 3, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		0.1, 1e20, 1e21, 1e-4, 1e-5, 123456789, 1234567, 0.000123, 1.5e300, -2.5e-300}
	b := netlist.NewBuilder("special", geom.NewRect(-1e308, math.Copysign(0, -1), 1e308, math.MaxFloat64), sub, 1e-5)
	b.SetRouteLayers(-3)
	b.SetRouteCapScale(math.Copysign(0, -1))
	b.SetTargetDensity(sub)
	for i, v := range vals {
		w := math.Abs(v)
		if w == 0 {
			w = sub
		}
		b.AddCell("c"+string(rune('a'+i)), netlist.CellKind(i%3), v, -v, w, w)
		b.AddNet("n"+string(rune('a'+i)), v)
	}
	for i, v := range vals {
		b.Connect(i, (i*7)%len(vals), v, vals[(i+3)%len(vals)])
	}
	b.AddRail(geom.Segment{A: geom.Point{X: -1e308, Y: sub}, B: geom.Point{X: 1e308, Y: -sub}}, math.MaxFloat64)
	return b.MustBuild()
}

// TestMatchesReferences holds Write and Read to the references they
// replaced, on the catalog designs before and after a short placement and
// on the special values: Write's bytes equal the fmt writer's, and Read
// returns a design reflect.DeepEqual to the strings.Fields reader's —
// names, numbers, pin lists in pin order and the nil lists of pinless
// cells included.
func TestMatchesReferences(t *testing.T) {
	check := func(t *testing.T, d *netlist.Design) {
		t.Helper()
		var got, want bytes.Buffer
		if err := Write(&got, d); err != nil {
			t.Fatal(err)
		}
		if err := writeFmt(&want, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("line %d is %q, fmt gives %q", i+1, g[i], w[i])
				}
			}
			t.Fatalf("%d bytes, fmt gives %d", got.Len(), want.Len())
		}
		rd, err := Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := readFields(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rd, ref) {
			t.Fatal("Read and the strings.Fields reference read different designs")
		}
	}
	forCatalog(t, check)
	check(t, specialDesign(t))
}

// TestWriteGoldenDigests pins the SHA-256 of the generated catalog designs'
// files, as the fmt writer and the fmt.Sprintf-named generator produced
// them: synth's names and Write's bytes must not move.
func TestWriteGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"des_perf_1":     "333a1907cb66af5d251c7b95b8ba6b7d3806e77d38ec3391ccfa173ced8cf56e",
		"fft_1":          "4239c794db77813af3f8c32ec09804f93c59e9372b4d36bca0c3cf022c36c864",
		"fft_b":          "e86e10abfe1cc3994f5ae2d3b5ca8624ae7b8aee910cd640a85309480574c3ba",
		"matrix_mult_b":  "92685cc70cf4949af3325511784baba84b0939fe03a3c787154e6ac3d24d1bd4",
		"pci_bridge32_a": "43b6ca3a06b25f48546bc3b07c1e5657e98f17c36c0afddd56a77c2a7ec96869",
		"superblue11_a":  "9b41ca3ebc6f057ca3dd5c8ebd20a050f93751d026685e083feb18a02a0774cb",
		"superblue12":    "7e560844a6caabc06b6aca15adf3038f481f187dad59a689443b640d8803275e",
		"tiny_hot":       "5de47776a90f7ff6b9b07c045cc83029ffe99e406007db6578b131d4f36df311",
		"tiny_open":      "0c3a3047b17c3c132c5e2854a1a9225add3070dfacd14b4ef01de7cd1dd13bb4",
	}
	for name, want := range golden {
		h := sha256.New()
		if err := Write(h, synth.MustGenerate(name)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: file digest %s, want %s", name, got, want)
		}
	}
}

// TestReadLineTooLong: a line past the scanner's 16 MiB limit fails both
// readers with the same error.
func TestReadLineTooLong(t *testing.T) {
	src := "die 0 0 10 10\n# " + strings.Repeat("x", 1<<24) + "\nrow 8 1\n"
	_, err := Read(strings.NewReader(src))
	_, want := readFields(strings.NewReader(src))
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Read error %v, reference %v", err, want)
	}
}

func benchmarkPayload(b *testing.B, name string) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, synth.MustGenerate(name)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkRead(b *testing.B) {
	for _, name := range []string{"des_perf_1", "superblue11_a"} {
		b.Run(name, func(b *testing.B) {
			payload := benchmarkPayload(b, name)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWrite(b *testing.B) {
	for _, name := range []string{"des_perf_1", "superblue11_a"} {
		b.Run(name, func(b *testing.B) {
			d := synth.MustGenerate(name)
			var buf bytes.Buffer
			if err := Write(&buf, d); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Write(&buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
