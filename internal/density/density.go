// Package density implements the electrostatics-based density penalty D(x,y)
// of ePlace (paper Sec. II-A): movable cells, filler cells and fixed macros
// are rasterized as charge onto a power-of-two bin grid, the Poisson solver
// turns the charge into a potential ψ and field E = −∇ψ, and the penalty
// ½·Σ A_i·ψ_i with gradient −A_i·E(x_i) drives cells out of dense regions.
//
// Two paper-specific hooks extend the plain ePlace model:
//
//   - per-cell inflation ratios (Sec. III-B): the momentum-based cell
//     inflation multiplies each movable cell's charge area during
//     rasterization only, so congested cells push harder;
//   - an additive PG-rail density D^PG (Sec. III-C, Eq. 13–15) supplied per
//     bin by the pgrail package, re-evaluated every routability iteration.
package density

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/poisson"
	"repro/internal/spectral"
)

// Model holds the bin grid, the Poisson solver, filler cells and scratch
// buffers for density evaluation of one design.
//
// Rasterization and the penalty/overflow reductions run over the
// internal/parallel shard layer: splats are cache-blocked into bin tiles
// whose per-bin summation order reproduces the fixed shard tree (see
// Compute), so every worker count produces byte-identical fields,
// penalties and gradients.
type Model struct {
	// Workers caps the goroutines used per evaluation (rasterization,
	// penalty, gradients and the embedded Poisson solve); 0 selects
	// runtime.GOMAXPROCS(0), 1 runs fully serial. Results are
	// byte-identical for any setting.
	Workers int

	// RhoHook, when non-nil, is invoked with the normalized charge-density
	// grid after rasterization and immediately before the Poisson solve. It
	// is a fault-injection / diagnostics seam (the guard chaos suite poisons
	// one bin through it); production runs leave it nil.
	RhoHook func(rho []float64)

	d      *netlist.Design
	NX, NY int
	binW   float64
	binH   float64

	solver *poisson.Solver
	grid   *poisson.Grid

	rho      []float64 // charge density, rebuilt each Compute
	fixedRho []float64 // precomputed macro/blockage charge
	pgRho    []float64 // PG-rail additive density (Eq. 14), set externally
	movArea  []float64 // per-bin movable+filler area (for overflow)
	freeBin  []float64 // per-bin free area = binArea − fixed overlap

	// Cache-blocked rasterization state: the bin grid is partitioned into
	// tileBins×tileBins tiles, each Compute builds per-tile charge lists,
	// and tiles are splatted independently (disjoint bin writes, no merge).
	// See Compute for the determinism argument.
	tpx, tpy    int // tiles per axis
	cellIndex   tileIndex
	fillerIndex tileIndex
	tileScratch [parallel.NumShards][]float64 // per-worker tile accumulator
	stats       parallel.Timing

	// Smoothed charges of the movable cells (indexed by cell) and the active
	// fillers, built once per Compute and shared by the tile index passes
	// and the splat.
	cellQ, fillerQ []charge

	inflation []float64 // per-cell inflation ratio r_i (movables only used)

	// Fillers occupy free space so real cells stay compact (ePlace).
	FillerW, FillerH float64
	FillerPos        []float64 // [x0,y0,x1,y1,...] centers
	fillerArea       float64   // area of one filler

	// activeFillers counts the fillers currently rasterized. When cells
	// inflate, the extra charge is paid for by deactivating fillers so the
	// total charge stays at the density target and the problem remains
	// feasible (the standard RePlAce/DREAMPlace mechanism).
	activeFillers int

	baseMovableArea  float64 // uninflated movable area
	totalMovableArea float64
}

// New creates a density model with a grid of roughly gridHint bins on the
// longer die axis (rounded up to powers of two, minimum 16).
func New(d *netlist.Design, gridHint int) *Model {
	if gridHint < 16 {
		gridHint = 16
	}
	nx := spectral.NextPow2(gridHint)
	ny := nx
	m := &Model{
		d:    d,
		NX:   nx,
		NY:   ny,
		binW: d.Die.W() / float64(nx),
		binH: d.Die.H() / float64(ny),
	}
	solver, err := poisson.NewSolver(nx, ny)
	if err != nil {
		// nx and ny come from NextPow2 above; a failure here is a programming
		// error in this constructor, not a caller mistake.
		panic(err)
	}
	m.solver = solver
	m.grid = m.solver.NewGrid()
	n := nx * ny
	m.rho = make([]float64, n)
	m.fixedRho = make([]float64, n)
	m.pgRho = make([]float64, n)
	m.movArea = make([]float64, n)
	m.freeBin = make([]float64, n)
	m.tpx = (nx + tileBins - 1) / tileBins
	m.tpy = (ny + tileBins - 1) / tileBins
	for s := range m.tileScratch {
		m.tileScratch[s] = make([]float64, tileBins*tileBins)
	}
	m.cellQ = make([]charge, len(d.Cells))
	m.inflation = make([]float64, len(d.Cells))
	for i := range m.inflation {
		m.inflation[i] = 1
	}
	m.precomputeFixed()
	m.buildFillers()
	m.fillerQ = make([]charge, m.NumFillers())
	return m
}

// Stats returns the accumulated wall/busy time of the model's own parallel
// sections — rasterization, penalty, gradient and overflow loops, excluding
// the embedded Poisson solve (telemetry: the parallel.density speedup gauge).
func (m *Model) Stats() parallel.Timing { return m.stats }

// SolverStats returns the timing of the embedded Poisson solver's parallel
// sections (telemetry: the parallel.poisson speedup gauge).
func (m *Model) SolverStats() parallel.Timing { return m.solver.Stats() }

// BinW returns the bin width.
func (m *Model) BinW() float64 { return m.binW }

// BinH returns the bin height.
func (m *Model) BinH() float64 { return m.binH }

// precomputeFixed rasterizes macros as full-density fixed charge and derives
// the per-bin free area.
func (m *Model) precomputeFixed() {
	binArea := m.binW * m.binH
	for i := range m.freeBin {
		m.freeBin[i] = binArea
	}
	for ci := range m.d.Cells {
		c := &m.d.Cells[ci]
		if c.Kind != netlist.Macro {
			continue
		}
		m.splat(m.fixedRho, c.Rect(), 1, false)
	}
	for i := range m.fixedRho {
		if m.fixedRho[i] > binArea {
			m.fixedRho[i] = binArea
		}
		m.freeBin[i] = binArea - m.fixedRho[i]
	}
}

// buildFillers creates filler cells totalling targetDensity·freeArea minus
// the movable area, uniformly sprinkled over free bins (deterministically).
func (m *Model) buildFillers() {
	var freeArea float64
	for _, f := range m.freeBin {
		freeArea += f
	}
	var movArea, movW float64
	var movN int
	for i := range m.d.Cells {
		c := &m.d.Cells[i]
		if c.Movable() {
			movArea += c.Area()
			movW += c.W
			movN++
		}
	}
	m.totalMovableArea = movArea
	m.baseMovableArea = movArea
	target := m.d.TargetDensity
	if target <= 0 {
		target = 0.9
	}
	fillerTotal := target*freeArea - movArea
	if fillerTotal <= 0 || movN == 0 {
		return
	}
	m.FillerW = movW / float64(movN)
	m.FillerH = m.d.RowHeight
	m.fillerArea = m.FillerW * m.FillerH
	n := int(fillerTotal / m.fillerArea)
	if n <= 0 {
		return
	}
	// Halton-like deterministic low-discrepancy sprinkle over free space.
	m.FillerPos = make([]float64, 0, 2*n)
	placed := 0
	for k := 1; placed < n && k < 50*n+100; k++ {
		x := m.d.Die.Lo.X + halton(k, 2)*m.d.Die.W()
		y := m.d.Die.Lo.Y + halton(k, 3)*m.d.Die.H()
		bx, by := m.binAt(x, y)
		if m.freeBin[by*m.NX+bx] < 0.5*m.binW*m.binH {
			continue // mostly blocked bin
		}
		m.FillerPos = append(m.FillerPos, x, y)
		placed++
	}
	// Fillers count as movable charge in the overflow normalization too.
	m.activeFillers = m.NumFillers()
	m.totalMovableArea += m.fillerArea * float64(m.NumFillers())
}

func halton(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// NumFillers returns the filler cell count.
func (m *Model) NumFillers() int { return len(m.FillerPos) / 2 }

// SetInflations replaces all inflation ratios; len must equal len(Cells)
// or an error is returned (an API-boundary condition the caller can cause).
// The filler population is shrunk by the total inflation delta so the total
// movable charge stays at the density target.
func (m *Model) SetInflations(r []float64) error {
	if len(r) != len(m.inflation) {
		return fmt.Errorf("density: %d inflation ratios for %d cells", len(r), len(m.inflation))
	}
	copy(m.inflation, r)
	m.rebalanceFillers()
	return nil
}

// rebalanceFillers deactivates enough fillers to pay for the current
// inflation surplus Σ(r_i−1)·A_i (clamped to the available filler pool).
func (m *Model) rebalanceFillers() {
	if m.fillerArea <= 0 || m.NumFillers() == 0 {
		return
	}
	var extra float64
	for ci := range m.d.Cells {
		c := &m.d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if ri := m.inflation[ci]; ri > 1 {
			extra += (ri - 1) * c.Area()
		}
	}
	drop := int(extra / m.fillerArea)
	m.activeFillers = m.NumFillers() - drop
	if m.activeFillers < 0 {
		m.activeFillers = 0
	}
}

// PGDensity returns a copy of the current PG-rail additive bin density
// (what the last SetPGDensity installed; all zeros initially). Together
// with the inflation ratios and filler positions it completes the model's
// externally-set state for checkpointing.
func (m *Model) PGDensity() []float64 {
	return append([]float64(nil), m.pgRho...)
}

// SetPGDensity replaces the PG-rail additive bin density (Eq. 14). The slice
// must have NX·NY entries expressed as area per bin (same unit as cell
// overlap areas) or an error is returned; pass nil to clear.
func (m *Model) SetPGDensity(pg []float64) error {
	if pg == nil {
		for i := range m.pgRho {
			m.pgRho[i] = 0
		}
		return nil
	}
	if len(pg) != len(m.pgRho) {
		return fmt.Errorf("density: PG density has %d bins, grid is %dx%d", len(pg), m.NX, m.NY)
	}
	copy(m.pgRho, pg)
	return nil
}

func (m *Model) binAt(x, y float64) (int, int) {
	bx := int((x - m.d.Die.Lo.X) / m.binW)
	by := int((y - m.d.Die.Lo.Y) / m.binH)
	return geom.ClampInt(bx, 0, m.NX-1), geom.ClampInt(by, 0, m.NY-1)
}

// splat adds the (possibly smoothed) overlap area of r into the target bin
// array, optionally with area-preserving minimum-size smoothing: cells
// smaller than a bin are expanded to bin size with proportionally reduced
// density so the field stays smooth (ePlace's local smoothing).
func (m *Model) splat(dst []float64, r geom.Rect, scale float64, smooth bool) {
	if smooth {
		r, scale = m.smoothed(r, scale)
	}
	lo := r.Lo
	hi := r.Hi
	bx0 := geom.ClampInt(int((lo.X-m.d.Die.Lo.X)/m.binW), 0, m.NX-1)
	bx1 := geom.ClampInt(int((hi.X-m.d.Die.Lo.X)/m.binW), 0, m.NX-1)
	by0 := geom.ClampInt(int((lo.Y-m.d.Die.Lo.Y)/m.binH), 0, m.NY-1)
	by1 := geom.ClampInt(int((hi.Y-m.d.Die.Lo.Y)/m.binH), 0, m.NY-1)
	for by := by0; by <= by1; by++ {
		y0 := m.d.Die.Lo.Y + float64(by)*m.binH
		oy := geom.OverlapLen(lo.Y, hi.Y, y0, y0+m.binH)
		if oy <= 0 {
			continue
		}
		for bx := bx0; bx <= bx1; bx++ {
			x0 := m.d.Die.Lo.X + float64(bx)*m.binW
			ox := geom.OverlapLen(lo.X, hi.X, x0, x0+m.binW)
			if ox <= 0 {
				continue
			}
			dst[by*m.NX+bx] += ox * oy * scale
		}
	}
}

// smoothed applies ePlace's area-preserving minimum-size smoothing: rects
// smaller than a bin are expanded to bin size with proportionally reduced
// density. The rect is always rebuilt around its center (even when no axis
// expands) so the arithmetic matches the historical splat smooth branch
// bit for bit.
func (m *Model) smoothed(r geom.Rect, scale float64) (geom.Rect, float64) {
	w, h := r.W(), r.H()
	cx, cy := r.Center().X, r.Center().Y
	if w < m.binW {
		scale *= w / m.binW
		w = m.binW
	}
	if h < m.binH {
		scale *= h / m.binH
		h = m.binH
	}
	return geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2), scale
}

// charge is one object's smoothed charge rect, its density scale and the
// inclusive bin bounding box it touches.
type charge struct {
	r                  geom.Rect
	scale              float64
	bx0, bx1, by0, by1 int32
}

// newCharge wraps a smoothed charge rect with its bin bounding box.
func (m *Model) newCharge(r geom.Rect, scale float64) charge {
	bx0, bx1, by0, by1 := m.binBBox(r)
	return charge{r: r, scale: scale, bx0: int32(bx0), bx1: int32(bx1), by0: int32(by0), by1: int32(by1)}
}

// cellCharge returns the smoothed charge of one movable cell at its current
// position and inflation ratio. Inflation scales the charge area (paper:
// "the cell size is proportionally inflated during density calculation").
func (m *Model) cellCharge(ci int) charge {
	c := &m.d.Cells[ci]
	r := m.inflation[ci]
	if r <= 0 {
		r = 1
	}
	w := c.W * math.Sqrt(r)
	h := c.H * math.Sqrt(r)
	return m.newCharge(m.smoothed(geom.NewRect(c.X-w/2, c.Y-h/2, c.X+w/2, c.Y+h/2), 1))
}

// fillerCharge returns the smoothed charge of one filler cell.
func (m *Model) fillerCharge(k int) charge {
	x, y := m.FillerPos[2*k], m.FillerPos[2*k+1]
	return m.newCharge(m.smoothed(geom.NewRect(x-m.FillerW/2, y-m.FillerH/2, x+m.FillerW/2, y+m.FillerH/2), 1))
}

// binBBox returns the inclusive bin bounding box a charge rect touches,
// clamped to the grid — the same clamping the splat loop applies.
func (m *Model) binBBox(r geom.Rect) (bx0, bx1, by0, by1 int) {
	bx0 = geom.ClampInt(int((r.Lo.X-m.d.Die.Lo.X)/m.binW), 0, m.NX-1)
	bx1 = geom.ClampInt(int((r.Hi.X-m.d.Die.Lo.X)/m.binW), 0, m.NX-1)
	by0 = geom.ClampInt(int((r.Lo.Y-m.d.Die.Lo.Y)/m.binH), 0, m.NY-1)
	by1 = geom.ClampInt(int((r.Hi.Y-m.d.Die.Lo.Y)/m.binH), 0, m.NY-1)
	return
}

// tileSpan returns the inclusive tile range a charge touches.
func (q *charge) tileSpan() (tx0, ty0, tx1, ty1 int, ok bool) {
	return int(q.bx0) / tileBins, int(q.by0) / tileBins, int(q.bx1) / tileBins, int(q.by1) / tileBins, true
}

// splatTile adds the overlap of a charge into a tile-local accumulator,
// visiting only bins inside the tile. The per-bin overlap arithmetic is
// identical to splat; bins of the rect outside this tile are splatted by the
// tiles that own them. The x-overlaps are computed once per call into oxs
// and reused by every bin row. touched gets, per tile row the splat writes
// to, a bit for each tile column of the charge's bin span; every bin written
// has its bit set.
func (m *Model) splatTile(dst []float64, q *charge, tbx0, tby0, bw, bh int, oxs *[tileBins]float64, touched *[tileBins]uint32) {
	r := q.r
	bx0 := max(int(q.bx0), tbx0)
	by0 := max(int(q.by0), tby0)
	bx1 := min(int(q.bx1), tbx0+bw-1)
	by1 := min(int(q.by1), tby0+bh-1)
	if bx0 > bx1 { // nothing to write; keeps the column shift below valid
		return
	}
	for bx := bx0; bx <= bx1; bx++ {
		x0 := m.d.Die.Lo.X + float64(bx)*m.binW
		oxs[bx-tbx0] = geom.OverlapLen(r.Lo.X, r.Hi.X, x0, x0+m.binW)
	}
	cols := (uint32(1)<<(bx1-bx0+1) - 1) << (bx0 - tbx0) // bits bx0..bx1; all 32 when the shift is 32
	for by := by0; by <= by1; by++ {
		y0 := m.d.Die.Lo.Y + float64(by)*m.binH
		oy := geom.OverlapLen(r.Lo.Y, r.Hi.Y, y0, y0+m.binH)
		if oy <= 0 {
			continue
		}
		touched[by-tby0] |= cols
		row := (by-tby0)*bw - tbx0
		for bx := bx0; bx <= bx1; bx++ {
			ox := oxs[bx-tbx0]
			if ox <= 0 {
				continue
			}
			dst[row+bx] += ox * oy * q.scale
		}
	}
}

// tileBins is the tile edge length in bins. A tile accumulator is
// tileBins²·8 bytes = 8 KiB — two fit in L1, so the splat inner loop hits
// cache no matter how large the full grid is (a 1M-cell design uses a
// 512×512 grid: 2 MiB per field, far beyond L1/L2 when splatted at random).
const tileBins = 32

// tileIndex is a per-Compute CSR index mapping each tile to the charges
// whose bin bounding box intersects it, segmented by parallel shard. Within
// a (tile, shard) segment items appear in ascending index order, which is
// what makes the tiled summation reproduce the flat per-shard order.
// Buffers are grow-only and reused across Computes.
type tileIndex struct {
	cnt   [parallel.NumShards][]int32 // per-shard per-tile charge counts
	start [parallel.NumShards][]int32 // segment start in list
	end   [parallel.NumShards][]int32 // segment end (filled during pass 2)
	list  []int32                     // concatenated per-tile, per-shard item lists
}

func (ti *tileIndex) ensure(nt int) {
	for s := 0; s < parallel.NumShards; s++ {
		if cap(ti.cnt[s]) < nt {
			ti.cnt[s] = make([]int32, nt)
			ti.start[s] = make([]int32, nt)
			ti.end[s] = make([]int32, nt)
		}
		ti.cnt[s] = ti.cnt[s][:nt]
		ti.start[s] = ti.start[s][:nt]
		ti.end[s] = ti.end[s][:nt]
		for t := range ti.cnt[s] {
			ti.cnt[s][t] = 0
		}
	}
}

// build populates the index for n items whose tile span is given by span
// (ok=false items are skipped): a parallel count pass, a serial prefix sum,
// and a parallel fill pass. Shard s writes only its own rows and segments,
// so both passes are race-free, and iterating a shard's contiguous item
// range in order makes every segment ascending.
func (ti *tileIndex) build(workers, nt, n, tpx int, span func(i int) (tx0, ty0, tx1, ty1 int, ok bool)) parallel.Timing {
	ti.ensure(nt)
	stats := parallel.For(workers, n, func(shard, lo, hi int) {
		cnt := ti.cnt[shard]
		for i := lo; i < hi; i++ {
			tx0, ty0, tx1, ty1, ok := span(i)
			if !ok {
				continue
			}
			for ty := ty0; ty <= ty1; ty++ {
				for tx := tx0; tx <= tx1; tx++ {
					cnt[ty*tpx+tx]++
				}
			}
		}
	})
	var pos int32
	for t := 0; t < nt; t++ {
		for s := 0; s < parallel.NumShards; s++ {
			ti.start[s][t] = pos
			ti.end[s][t] = pos
			pos += ti.cnt[s][t]
		}
	}
	if cap(ti.list) < int(pos) {
		ti.list = make([]int32, pos)
	}
	ti.list = ti.list[:pos]
	stats.Add(parallel.For(workers, n, func(shard, lo, hi int) {
		end := ti.end[shard]
		for i := lo; i < hi; i++ {
			tx0, ty0, tx1, ty1, ok := span(i)
			if !ok {
				continue
			}
			for ty := ty0; ty <= ty1; ty++ {
				for tx := tx0; tx <= tx1; tx++ {
					t := ty*tpx + tx
					ti.list[end[t]] = int32(i)
					end[t]++
				}
			}
		}
	}))
	return stats
}

// Compute rasterizes the current cell and filler positions and solves the
// Poisson equation. It must be called before Penalty, Overflow or the
// gradient accessors.
//
// Rasterization is cache-blocked: charges are bucketed into 32×32-bin
// tiles, then tiles are splatted in parallel with disjoint bin writes —
// no full-grid shard buffers to zero and merge, and the inner loop stays
// inside an 8 KiB accumulator regardless of grid size.
//
// The result is bit-identical to the historical per-shard merge for every
// worker count: per bin, the charge is still
//
//	fixed + P₀ + P₁ + … + P₁₅
//
// with partial P_s summed from zero over shard s's movable cells then
// shard s's fillers in ascending index order — the tile loop just computes
// each P_s restricted to its own bins (tiles partition the grid, and the
// per-bin overlap arithmetic is shared with splat). Each (tile, shard)
// segment merges, and re-zeroes, only the bins its splats marked, and an
// empty segment is skipped. Both are exact: an unmarked bin's partial is
// +0.0, and adding +0.0 to rho or movArea changes nothing, because neither
// is ever −0 — fixedRho and every splat contribution are ≥ +0.
func (m *Model) Compute() {
	nCells := len(m.d.Cells)
	nt := m.tpx * m.tpy
	m.stats.Add(parallel.For(m.Workers, nCells, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			if m.d.Cells[ci].Movable() {
				m.cellQ[ci] = m.cellCharge(ci)
			}
		}
	}))
	m.stats.Add(parallel.For(m.Workers, m.activeFillers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			m.fillerQ[k] = m.fillerCharge(k)
		}
	}))
	m.stats.Add(m.cellIndex.build(m.Workers, nt, nCells, m.tpx,
		func(ci int) (int, int, int, int, bool) {
			if !m.d.Cells[ci].Movable() {
				return 0, 0, 0, 0, false
			}
			return m.cellQ[ci].tileSpan()
		}))
	m.stats.Add(m.fillerIndex.build(m.Workers, nt, m.activeFillers, m.tpx,
		func(k int) (int, int, int, int, bool) { return m.fillerQ[k].tileSpan() }))
	m.stats.Add(parallel.For(m.Workers, nt, func(worker, lo, hi int) {
		scratch := m.tileScratch[worker] // all +0 between segments
		var oxs [tileBins]float64
		var touched [tileBins]uint32 // per tile row, the columns the segment marked
		for t := lo; t < hi; t++ {
			tbx0 := (t % m.tpx) * tileBins
			tby0 := (t / m.tpx) * tileBins
			bw := m.NX - tbx0
			if bw > tileBins {
				bw = tileBins
			}
			bh := m.NY - tby0
			if bh > tileBins {
				bh = tileBins
			}
			for yy := 0; yy < bh; yy++ {
				row := (tby0+yy)*m.NX + tbx0
				copy(m.rho[row:row+bw], m.fixedRho[row:row+bw])
				for xx := 0; xx < bw; xx++ {
					m.movArea[row+xx] = 0
				}
			}
			for s := 0; s < parallel.NumShards; s++ {
				cLo, cHi := m.cellIndex.start[s][t], m.cellIndex.end[s][t]
				fLo, fHi := m.fillerIndex.start[s][t], m.fillerIndex.end[s][t]
				if cLo == cHi && fLo == fHi {
					continue
				}
				part := scratch[:bw*bh]
				for _, ci := range m.cellIndex.list[cLo:cHi] {
					m.splatTile(part, &m.cellQ[ci], tbx0, tby0, bw, bh, &oxs, &touched)
				}
				for _, k := range m.fillerIndex.list[fLo:fHi] {
					m.splatTile(part, &m.fillerQ[k], tbx0, tby0, bw, bh, &oxs, &touched)
				}
				for yy, cols := range touched[:bh] {
					touched[yy] = 0
					srow := yy * bw
					drow := (tby0+yy)*m.NX + tbx0
					for cols != 0 { // one run of marked columns at a time
						x0 := bits.TrailingZeros32(cols)
						run := bits.TrailingZeros32(^(cols >> x0))
						for xx := x0; xx < x0+run; xx++ {
							v := part[srow+xx]
							part[srow+xx] = 0
							m.rho[drow+xx] += v
							m.movArea[drow+xx] += v
						}
						cols &^= (uint32(1)<<run - 1) << x0
					}
				}
			}
		}
	}))
	for i := range m.rho {
		m.rho[i] += m.pgRho[i]
	}
	// Normalize to density (area per bin / bin area) so the field scale is
	// grid-independent.
	binArea := m.binW * m.binH
	for i := range m.rho {
		m.rho[i] /= binArea
	}
	if m.RhoHook != nil {
		m.RhoHook(m.rho)
	}
	m.solver.Workers = m.Workers
	m.solver.Solve(m.rho, m.grid)
}

// ScanNonFinite scans the charge density and the solved Poisson field for
// NaN/±Inf values, returning the name of the first offending array, the bin
// index and the value; ok is true when everything is finite. This is the
// guard layer's density/Poisson-field sentinel — O(3·NX·NY), trivially
// cheap next to the solve itself. The potential is not scanned: Compute
// does not synthesize it, and a non-finite coefficient of ψ reaches Ex or
// Ey too.
func (m *Model) ScanNonFinite() (field string, index int, value float64, ok bool) {
	for _, s := range []struct {
		name string
		v    []float64
	}{{"rho", m.rho}, {"ex", m.grid.Ex}, {"ey", m.grid.Ey}} {
		for i, x := range s.v {
			if x-x != 0 { // NaN or ±Inf
				return s.name, i, x, false
			}
		}
	}
	return "", -1, 0, true
}

// sample bilinearly interpolates a grid field at (x, y), with bin-center
// alignment and edge clamping.
func (m *Model) sample(f []float64, x, y float64) float64 {
	fx := (x-m.d.Die.Lo.X)/m.binW - 0.5
	fy := (y-m.d.Die.Lo.Y)/m.binH - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	x0 = geom.ClampInt(x0, 0, m.NX-1)
	y0 = geom.ClampInt(y0, 0, m.NY-1)
	x1 := geom.ClampInt(x0+1, 0, m.NX-1)
	y1 := geom.ClampInt(y0+1, 0, m.NY-1)
	tx = geom.Clamp(tx, 0, 1)
	ty = geom.Clamp(ty, 0, 1)
	f00 := f[y0*m.NX+x0]
	f10 := f[y0*m.NX+x1]
	f01 := f[y1*m.NX+x0]
	f11 := f[y1*m.NX+x1]
	return f00*(1-tx)*(1-ty) + f10*tx*(1-ty) + f01*(1-tx)*ty + f11*tx*ty
}

// Potential returns ψ interpolated at (x, y). Compute must have been called;
// the first call after it synthesizes ψ.
func (m *Model) Potential(x, y float64) float64 {
	m.solver.Potential(m.grid)
	return m.sample(m.grid.Psi, x, y)
}

// Field returns E = −∇ψ interpolated at (x, y).
func (m *Model) Field(x, y float64) (float64, float64) {
	return m.sample(m.grid.Ex, x, y), m.sample(m.grid.Ey, x, y)
}

// Penalty returns D = ½·Σ_i A_i·ψ(x_i) over movable cells and fillers, with
// A_i the inflated charge area. The sum is reduced per shard in fixed order,
// so it is byte-identical for every worker count.
func (m *Model) Penalty() float64 {
	m.solver.Potential(m.grid)
	var cellParts, fillParts [parallel.NumShards]float64
	m.stats.Add(parallel.For(m.Workers, len(m.d.Cells), func(shard, lo, hi int) {
		var sum float64
		for ci := lo; ci < hi; ci++ {
			c := &m.d.Cells[ci]
			if !c.Movable() {
				continue
			}
			a := c.Area() * m.inflation[ci]
			sum += a * m.sample(m.grid.Psi, c.X, c.Y)
		}
		cellParts[shard] = sum
	}))
	m.stats.Add(parallel.For(m.Workers, m.activeFillers, func(shard, lo, hi int) {
		var sum float64
		for k := lo; k < hi; k++ {
			sum += m.fillerArea * m.sample(m.grid.Psi, m.FillerPos[2*k], m.FillerPos[2*k+1])
		}
		fillParts[shard] = sum
	}))
	return (parallel.SumShards(&cellParts) + parallel.SumShards(&fillParts)) / 2
}

// AccumCellGrad adds scale·∂D/∂(x_i,y_i) = −scale·A_i·E(x_i) for every
// movable cell into grad (layout [gx0,gy0,...], length 2·len(Cells)).
// Writes are disjoint per cell, so the parallel form is bitwise-identical
// to serial.
func (m *Model) AccumCellGrad(grad []float64, scale float64) {
	if len(grad) != 2*len(m.d.Cells) {
		panic("density: cell gradient length mismatch")
	}
	m.stats.Add(parallel.For(m.Workers, len(m.d.Cells), func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			c := &m.d.Cells[ci]
			if !c.Movable() {
				continue
			}
			a := c.Area() * m.inflation[ci]
			ex, ey := m.Field(c.X, c.Y)
			grad[2*ci] -= scale * a * ex
			grad[2*ci+1] -= scale * a * ey
		}
	}))
}

// AccumFillerGrad adds scale·∂D/∂(filler position) into fgrad (length
// 2·NumFillers). Disjoint per-filler writes, bitwise-identical to serial.
func (m *Model) AccumFillerGrad(fgrad []float64, scale float64) {
	if len(fgrad) != len(m.FillerPos) {
		panic("density: filler gradient length mismatch")
	}
	m.stats.Add(parallel.For(m.Workers, m.activeFillers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			ex, ey := m.Field(m.FillerPos[2*k], m.FillerPos[2*k+1])
			fgrad[2*k] -= scale * m.fillerArea * ex
			fgrad[2*k+1] -= scale * m.fillerArea * ey
		}
	}))
}

// Overflow returns the density overflow ratio
// Σ_b max(0, movArea_b − target·freeArea_b) / totalMovableArea, the ePlace
// convergence metric that also drives the γ and λ schedules. Bin-parallel
// with a fixed-order shard reduction.
func (m *Model) Overflow() float64 {
	if m.totalMovableArea == 0 {
		return 0
	}
	target := m.d.TargetDensity
	if target <= 0 {
		target = 0.9
	}
	var parts [parallel.NumShards]float64
	m.stats.Add(parallel.For(m.Workers, len(m.movArea), func(shard, lo, hi int) {
		var ovf float64
		for i := lo; i < hi; i++ {
			if ex := m.movArea[i] - target*m.freeBin[i]; ex > 0 {
				ovf += ex
			}
		}
		parts[shard] = ovf
	}))
	denom := m.baseMovableArea + m.fillerArea*float64(m.activeFillers)
	if denom <= 0 {
		denom = m.totalMovableArea
	}
	return parallel.SumShards(&parts) / denom
}

// CellDensityMap returns a copy of the per-bin movable+filler area map from
// the last Compute (used by the Fig. 1 congestion decomposition).
func (m *Model) CellDensityMap() []float64 {
	out := make([]float64, len(m.movArea))
	copy(out, m.movArea)
	return out
}

// ClampFillers keeps all fillers inside the die.
func (m *Model) ClampFillers() {
	for k := 0; k < m.NumFillers(); k++ {
		m.FillerPos[2*k] = geom.Clamp(m.FillerPos[2*k], m.d.Die.Lo.X+m.FillerW/2, m.d.Die.Hi.X-m.FillerW/2)
		m.FillerPos[2*k+1] = geom.Clamp(m.FillerPos[2*k+1], m.d.Die.Lo.Y+m.FillerH/2, m.d.Die.Hi.Y-m.FillerH/2)
	}
}
