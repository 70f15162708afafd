package route

// costField is a prefix-sum snapshot of cellCost over the whole grid, built
// once per choice batch against the frozen demand state. With it, pricing an
// inclusive horizontal or vertical run is two array lookups instead of an
// O(length) loop — the dominant term of chooseSegment (candidates ×
// run-length cellCost evaluations) collapses to O(candidates).
//
// Both prefixes are accumulated from +0 in ascending x (rows) and ascending
// y (columns), one addition per cell. The prefix-difference run cost rounds
// differently from the naive left-to-right sum (both are deterministic;
// they agree to ~n·ε relative error), which is why BENCH_baseline.json was
// regenerated when the field was introduced.
type costField struct {
	nx, ny int
	// cost[i] is the cellCost snapshot itself; bend cells are priced from it
	// directly so that runs and bends see the identical frozen values.
	cost []float64
	// rowPS[y*(nx+1)+x] = Σ_{k<x} cost[y*nx+k]; one extra slot per row makes
	// the inclusive-run difference branch-free.
	rowPS []float64
	// colPS[y*nx+x] = Σ_{k<y} cost[k*nx+x], stored row-major (ny+1 rows) so
	// the build writes it in the same pass and order as the row prefix.
	colPS []float64
}

func (f *costField) init(nx, ny int) {
	f.nx, f.ny = nx, ny
	f.cost = make([]float64, nx*ny)
	f.rowPS = make([]float64, ny*(nx+1))
	f.colPS = make([]float64, (ny+1)*nx)
}

// hRun returns the summed snapshot cost of the inclusive horizontal run
// (xa..xb, y) in O(1). It matches the naive runCost reference over the same
// frozen demand up to prefix-sum rounding (cross-checked in tests).
func (f *costField) hRun(y, xa, xb int) float64 {
	if xb < xa {
		xa, xb = xb, xa
	}
	base := y * (f.nx + 1)
	return f.rowPS[base+xb+1] - f.rowPS[base+xa]
}

// vRun returns the summed snapshot cost of the inclusive vertical run
// (x, ya..yb) in O(1).
func (f *costField) vRun(x, ya, yb int) float64 {
	if yb < ya {
		ya, yb = yb, ya
	}
	return f.colPS[(yb+1)*f.nx+x] - f.colPS[ya*f.nx+x]
}

// buildCostField rebuilds the snapshot and both prefix tables from the
// current demand and history state in one serial row-major pass. Called at
// the top of every choice batch, i.e. whenever the frozen demand snapshot
// changes. The first row of colPS and the first slot of every rowPS row
// stay +0 from init.
func (r *Router) buildCostField() {
	f := &r.cf
	nx := f.nx
	for y := 0; y < f.ny; y++ {
		row := y * nx
		cost := f.cost[row : row+nx]
		rps := f.rowPS[y*(nx+1)+1 : (y+1)*(nx+1)]
		above := f.colPS[row : row+nx]
		below := f.colPS[row+nx : row+2*nx]
		s := 0.0
		for x := range cost {
			c := r.cellCost(row + x)
			cost[x] = c
			s += c
			rps[x] = s
			below[x] = above[x] + c
		}
	}
}
