package cluster

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
)

func testDesign(t *testing.T, name string) *netlist.Design {
	t.Helper()
	d, err := synth.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCoarsenInvariants checks the structural contract of one level: every
// fine cell lands in exactly one cluster, fixed cells stay fixed singletons,
// movable area is conserved, and the coarse design validates.
func TestCoarsenInvariants(t *testing.T) {
	d := testDesign(t, "fft_b")
	m, err := Coarsen(d, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Coarse.Validate(); err != nil {
		t.Fatalf("coarse design invalid: %v", err)
	}
	if len(m.CellToCluster) != len(d.Cells) {
		t.Fatalf("CellToCluster length %d, want %d", len(m.CellToCluster), len(d.Cells))
	}
	// Partition check: members are disjoint, ascending and cover all cells.
	covered := make([]bool, len(d.Cells))
	for c, ms := range m.Members {
		for k, i := range ms {
			if covered[i] {
				t.Fatalf("cell %d in two clusters", i)
			}
			covered[i] = true
			if m.CellToCluster[i] != c {
				t.Fatalf("cell %d: CellToCluster %d, member of %d", i, m.CellToCluster[i], c)
			}
			if k > 0 && ms[k-1] >= i {
				t.Fatalf("cluster %d members not ascending: %v", c, ms)
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("cell %d not covered by any cluster", i)
		}
	}
	// Fixed cells must be singletons of the same kind and position.
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			continue
		}
		c := m.CellToCluster[i]
		if len(m.Members[c]) != 1 {
			t.Fatalf("fixed cell %d merged into cluster of %d", i, len(m.Members[c]))
		}
		cc := &m.Coarse.Cells[c]
		if cc.Kind != d.Cells[i].Kind || cc.X != d.Cells[i].X || cc.Y != d.Cells[i].Y {
			t.Fatalf("fixed cell %d not passed through verbatim", i)
		}
		if m.Weight[c] != 0 {
			t.Fatalf("fixed cluster %d has weight %d", c, m.Weight[c])
		}
	}
	// Movable area conservation (clusters carry their exact member area).
	var fineArea, coarseArea float64
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			fineArea += d.Cells[i].Area()
		}
	}
	for i := range m.Coarse.Cells {
		if m.Coarse.Cells[i].Movable() {
			coarseArea += m.Coarse.Cells[i].Area()
		}
	}
	if rel := (coarseArea - fineArea) / fineArea; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("movable area not conserved: fine %g coarse %g", fineArea, coarseArea)
	}
	// The pass must actually coarsen.
	fm, cm := movableCount(d), movableCount(m.Coarse)
	if cm >= fm {
		t.Fatalf("no reduction: %d -> %d movable cells", fm, cm)
	}
	t.Logf("fft_b: %d -> %d movable cells, %d -> %d nets",
		fm, cm, len(d.Nets), len(m.Coarse.Nets))
}

// TestCoarsenDeterministicAndPositionIndependent regenerates the design,
// perturbs every movable position, and requires the identical clustering.
func TestCoarsenDeterministicAndPositionIndependent(t *testing.T) {
	a := testDesign(t, "tiny_hot")
	b := testDesign(t, "tiny_hot")
	for i := range b.Cells {
		if b.Cells[i].Movable() {
			b.Cells[i].X += 100
			b.Cells[i].Y -= 50
		}
	}
	ma, err := Coarsen(a, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Coarsen(b, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.CellToCluster) != len(mb.CellToCluster) {
		t.Fatal("cluster count differs across position perturbation")
	}
	for i := range ma.CellToCluster {
		if ma.CellToCluster[i] != mb.CellToCluster[i] {
			t.Fatalf("cell %d: cluster %d vs %d (topology-only contract broken)",
				i, ma.CellToCluster[i], mb.CellToCluster[i])
		}
	}
}

// TestCoarsenSizeCap verifies no cluster exceeds the base-cell weight cap.
func TestCoarsenSizeCap(t *testing.T) {
	d := testDesign(t, "tiny_hot")
	const cap = 4
	m, err := Coarsen(d, nil, cap)
	if err != nil {
		t.Fatal(err)
	}
	for c, w := range m.Weight {
		if w > cap {
			t.Fatalf("cluster %d weight %d exceeds cap %d", c, w, cap)
		}
	}
}

// TestHierarchyShrinks checks stacked levels keep shrinking and weights sum
// to the movable cell count at every level.
func TestHierarchyShrinks(t *testing.T) {
	d := testDesign(t, "fft_b")
	maps, err := Hierarchy(d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("got %d maps, want 2", len(maps))
	}
	prev := movableCount(d)
	for k, m := range maps {
		now := movableCount(m.Coarse)
		if now >= prev {
			t.Fatalf("level %d did not shrink: %d -> %d", k+1, prev, now)
		}
		var wsum int
		for _, w := range m.Weight {
			wsum += w
		}
		if wsum != movableCount(d) {
			t.Fatalf("level %d weights sum %d, want %d", k+1, wsum, movableCount(d))
		}
		prev = now
	}
	if maps[1].Fine != maps[0].Coarse {
		t.Fatal("hierarchy levels not chained")
	}
}

// TestInterpolateSpreads places clusters, interpolates, and checks members
// land near their cluster center, inside the die, with no two members of a
// multi-cell cluster coincident.
func TestInterpolateSpreads(t *testing.T) {
	d := testDesign(t, "tiny_open")
	m, err := Coarsen(d, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter clusters deterministically inside the die.
	die := d.Die
	for i := range m.Coarse.Cells {
		c := &m.Coarse.Cells[i]
		if !c.Movable() {
			continue
		}
		fx := float64(i%7)/7 + 0.07
		fy := float64(i%5)/5 + 0.11
		c.X = die.Lo.X + fx*die.W()
		c.Y = die.Lo.Y + fy*die.H()
	}
	m.Interpolate()
	for c, ms := range m.Members {
		cc := &m.Coarse.Cells[c]
		if !cc.Movable() {
			continue
		}
		for k, i := range ms {
			f := &d.Cells[i]
			if f.X < die.Lo.X || f.X > die.Hi.X || f.Y < die.Lo.Y || f.Y > die.Hi.Y {
				t.Fatalf("cell %d interpolated outside the die", i)
			}
			if k > 0 && len(ms) > 1 {
				p := &d.Cells[ms[k-1]]
				if p.X == f.X && p.Y == f.Y {
					t.Fatalf("cluster %d members %d and %d coincide", c, ms[k-1], i)
				}
			}
		}
	}
}

func TestHierarchyRejectsBadLevels(t *testing.T) {
	d := testDesign(t, "tiny_open")
	if _, err := Hierarchy(d, 1, 0); err == nil {
		t.Fatal("levels=1 accepted")
	}
}
