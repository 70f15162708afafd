package synth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/netlist"
)

func TestCatalogCoversTable1(t *testing.T) {
	cat := Catalog()
	for _, name := range Table1Designs() {
		if _, ok := cat[name]; !ok {
			t.Errorf("Table I design %q missing from catalog", name)
		}
	}
	if len(Table1Designs()) != 20 {
		t.Errorf("Table I list has %d entries, want 20", len(Table1Designs()))
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope"); err == nil {
		t.Errorf("unknown design name accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("tiny_hot")
	b := MustGenerate("tiny_hot")
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Pins) != len(b.Pins) {
		t.Fatalf("sizes differ between runs")
	}
	for i := range a.Cells {
		if a.Cells[i].X != b.Cells[i].X || a.Cells[i].Y != b.Cells[i].Y || a.Cells[i].W != b.Cells[i].W {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
	for i := range a.Pins {
		if a.Pins[i] != b.Pins[i] {
			t.Fatalf("pin %d differs between runs", i)
		}
	}
}

func TestGeneratedDesignsValid(t *testing.T) {
	for _, name := range []string{"tiny_open", "tiny_hot", "fft_1", "matrix_mult_a", "superblue12", "pci_bridge32_b"} {
		d, err := Generate(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
	}
}

func TestUtilizationNearTarget(t *testing.T) {
	for _, name := range []string{"fft_1", "des_perf_1", "matrix_mult_a", "superblue12"} {
		p := Catalog()[name]
		d := MustGenerate(name)
		s := d.ComputeStats()
		if math.Abs(s.Utilization-p.Utilization) > 0.08 {
			t.Errorf("%s: utilization %v, target %v", name, s.Utilization, p.Utilization)
		}
	}
}

func TestMacroLayouts(t *testing.T) {
	// matrix_mult_a must have its macro grid (Fig. 4's layout).
	d := MustGenerate("matrix_mult_a")
	s := d.ComputeStats()
	if s.NumMacros != 12 {
		t.Errorf("matrix_mult_a macros = %d, want 12", s.NumMacros)
	}
	for _, r := range d.MacroRects() {
		if !d.Die.ContainsClosed(r.Lo) || !d.Die.ContainsClosed(r.Hi) {
			t.Errorf("macro %v leaves the die %v", r, d.Die)
		}
	}
	// Macros must not overlap each other.
	rects := d.MacroRects()
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Intersects(rects[j]) {
				t.Errorf("macros %d and %d overlap", i, j)
			}
		}
	}
	// fft_1 has none.
	if n := MustGenerate("fft_1").ComputeStats().NumMacros; n != 0 {
		t.Errorf("fft_1 macros = %d, want 0", n)
	}
}

func TestNetDegreeDistribution(t *testing.T) {
	d := MustGenerate("des_perf_1")
	p := Catalog()["des_perf_1"]
	two, total := 0, 0
	maxDeg := 0
	for i := range d.Nets {
		deg := d.Nets[i].Degree()
		if deg < 2 {
			t.Fatalf("net %d has degree %d", i, deg)
		}
		if deg > maxDeg {
			maxDeg = deg
		}
		// High-fanout nets excluded from the two-pin fraction check.
		if deg <= p.MaxDegree {
			total++
			if deg == 2 {
				two++
			}
		}
	}
	frac := float64(two) / float64(total)
	if math.Abs(frac-p.TwoPinFrac) > 0.06 {
		t.Errorf("two-pin fraction %v, target %v", frac, p.TwoPinFrac)
	}
	if maxDeg < 30 {
		t.Errorf("no high-fanout nets generated (max degree %d)", maxDeg)
	}
}

func TestPGRailsSpanDie(t *testing.T) {
	d := MustGenerate("matrix_mult_a")
	if len(d.Rails) == 0 {
		t.Fatalf("no PG rails generated")
	}
	for i, r := range d.Rails {
		if !r.Seg.Horizontal() {
			t.Errorf("rail %d not horizontal", i)
		}
		if r.Seg.Len() != d.Die.W() {
			t.Errorf("rail %d length %v, want die width %v", i, r.Seg.Len(), d.Die.W())
		}
		if r.Width <= 0 {
			t.Errorf("rail %d has non-positive width", i)
		}
	}
}

func TestIOPadsOnBoundary(t *testing.T) {
	d := MustGenerate("fft_1")
	found := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Kind != netlist.IOPad {
			continue
		}
		found++
		onEdge := c.X == d.Die.Lo.X || c.X == d.Die.Hi.X || c.Y == d.Die.Lo.Y || c.Y == d.Die.Hi.Y
		if !onEdge {
			t.Errorf("IO pad %d at (%v,%v) not on boundary", i, c.X, c.Y)
		}
	}
	if found == 0 {
		t.Errorf("no IO pads")
	}
}

func TestFromParamsRejectsBadParams(t *testing.T) {
	if _, err := FromParams(Params{Name: "bad", NumCells: 0}); err == nil {
		t.Errorf("zero cells accepted")
	}
	if _, err := FromParams(Params{Name: "bad", NumCells: 10, Utilization: 1.5}); err == nil {
		t.Errorf("utilization > 1 accepted")
	}
	if _, err := FromParams(Params{Name: "bad", NumCells: 10, Utilization: 0.5,
		Macros: 2, MacroFrac: 0.9, MacroLayout: MacroGrid}); err == nil {
		t.Errorf("MacroFrac 0.9 accepted")
	}
}

func TestAllCatalogDesignsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every design")
	}
	cat := Catalog()
	for _, name := range Names() {
		if cat[name].NumCells > 150_000 && os.Getenv("SYNTH_BIG") == "" {
			// The 250k–1M designs generate fine but dominate the suite's
			// runtime under -race; TestBigDesignDeterministicHash covers the
			// family at 100k. Set SYNTH_BIG=1 to include them.
			continue
		}
		d, err := Generate(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s := d.ComputeStats()
		if s.NumMovable == 0 || s.NumNets == 0 {
			t.Errorf("%s: degenerate design %+v", name, s)
		}
	}
}

// hashDesign digests the full generated structure — geometry bits included —
// so any cross-platform or cross-release drift in generation shows up as a
// hash mismatch, not as a silent placement difference.
func hashDesign(d *netlist.Design) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(d.Cells)))
	u64(uint64(len(d.Nets)))
	u64(uint64(len(d.Pins)))
	u64(uint64(len(d.Rails)))
	f64(d.Die.W())
	f64(d.Die.H())
	for i := range d.Cells {
		c := &d.Cells[i]
		u64(uint64(c.Kind))
		f64(c.X)
		f64(c.Y)
		f64(c.W)
		f64(c.H)
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		u64(uint64(p.Cell))
		u64(uint64(p.Net))
		f64(p.OffX)
		f64(p.OffY)
	}
	for i := range d.Nets {
		u64(uint64(len(d.Nets[i].Pins)))
	}
	return h.Sum64()
}

// TestBigDesignDeterministicHash pins the 100k-cell superblue1_big design to
// a golden digest: large-design generation must be bit-stable across
// platforms, Go releases and refactors of the generator's inner loops (the
// multilevel scale tests and the CI scale-smoke job all assume it). If an
// INTENTIONAL generator change shifts the digest, update the constant here
// and re-baseline the bench gate.
func TestBigDesignDeterministicHash(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100k-cell design")
	}
	d := MustGenerate("superblue1_big")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := d.ComputeStats()
	if s.NumMovable != 100_000 {
		t.Fatalf("superblue1_big has %d movable cells, want 100000", s.NumMovable)
	}
	const golden uint64 = 0x75996f2b1264d178
	got := hashDesign(d)
	if got != golden {
		t.Fatalf("superblue1_big digest %#x, want %#x", got, golden)
	}
}

func BenchmarkGenerateFFT1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate("fft_1")
	}
}
