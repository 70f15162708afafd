package core

// A run descends a level hierarchy: the design is coarsened Levels−1 times
// by internal/cluster's heavy-edge matcher (Options.Levels ≥ 2), the
// coarsest level is placed from scratch, and each coarse solution is
// interpolated down to seed the next finer level until the original design
// runs the full pipeline. A flat run is the one-level case: no cluster maps,
// so its only level is the original design. Every level reuses the stage
// pipeline unchanged — a level is just a PlacementState over the level's
// design with derived options — so checkpoint/resume, boundary preemption
// and the byte-identity guarantees all carry over: the hierarchy is a pure
// function of the input design (topology-deterministic matching,
// position-only centroids that are themselves deterministic), so a resumed
// process rebuilds the identical cluster maps and continues any level
// mid-flight.
//
// Telemetry and boundary points of coarse level k are prefixed "L<k>/"
// ("L2/wirelength", "L1/route_iter:3"); level 0 keeps the bare names, the
// same ones a flat run uses.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/netlist"
)

// mlRun is the context of one run: the outer run identity (the caller's
// design and post-default options) that checkpoints serialize regardless of
// which level they capture, plus the cluster hierarchy (none on a flat run).
type mlRun struct {
	orig  *netlist.Design // the finest (caller's) design
	outer Options         // post-setDefaults caller options

	maps     []*cluster.Map // maps[k] coarsens level k onto level k+1
	topLevel int            // coarsest level the run places (len(maps) once built)
}

// coarsen builds the cluster hierarchy (outer.Levels ≥ 2). A design that
// does not coarsen at all is degenerate for a multilevel run.
func (ml *mlRun) coarsen() error {
	maps, err := cluster.Hierarchy(ml.orig, ml.outer.Levels, ml.outer.ClusterMaxSize)
	switch {
	case errors.Is(err, cluster.ErrNoCoarsening):
		return fmt.Errorf("%w: multilevel: %w", ErrDegenerateDesign, err)
	case err != nil:
		return fmt.Errorf("core: multilevel: %w", err)
	}
	ml.maps, ml.topLevel = maps, len(maps)
	return nil
}

// design returns the level-k design (level 0 is the original).
func (ml *mlRun) design(k int) *netlist.Design {
	if k == 0 {
		return ml.orig
	}
	return ml.maps[k-1].Coarse
}

// levelOptions derives the options level k's pipeline runs under. Coarse
// levels run global placement only — their solution exists to seed the next
// finer level, so legalization/detailed refinement would be wasted work —
// and auto-size the bin grid from the coarse cell count (the caller's
// GridHint describes the finest level). Environment fields (Workers,
// Observer, checkpointing, hooks) pass through to every level.
func (ml *mlRun) levelOptions(k int) Options {
	opt := ml.outer
	if k > 0 {
		opt.GridHint = DefaultGridHint(len(ml.design(k).Cells))
		opt.SkipLegalize = true
		opt.SkipDetailed = true
	}
	return opt
}

// newLevelState builds a PlacementState for level k at the start of its
// pipeline; a resume overlays the checkpointed state on it.
func (ml *mlRun) newLevelState(k int) *PlacementState {
	opt := ml.levelOptions(k)
	ps := &PlacementState{
		D:     ml.design(k),
		Opt:   opt,
		Res:   &Result{Mode: opt.Mode},
		cur:   cursor{stage: "setup", step: -1},
		obs:   opt.Observer,
		level: k,
		ml:    ml,
	}
	if ps.obs != nil {
		ps.tr = ps.obs.Tracer
	}
	return ps
}

// descend runs level pipelines from ps's level down to level 0, carrying
// each coarse solution to the next finer level through the cluster map's
// density-aware interpolation. The returned Result is the finest level's,
// with the coarse levels' placement time folded into PlaceTime.
func (ml *mlRun) descend(ctx context.Context, ps *PlacementState) (*Result, error) {
	opt := &ml.outer
	var coarseTime time.Duration
	for {
		res, err := runPipeline(ctx, ps)
		if err != nil {
			if res != nil {
				res.PlaceTime += coarseTime
			}
			return res, err
		}
		if ps.level == 0 {
			res.PlaceTime += coarseTime
			return res, nil
		}
		coarseTime += res.PlaceTime
		m := ml.maps[ps.level-1]
		m.Interpolate()
		opt.logf("level %d done: %d clusters interpolated onto %d cells, HPWL %.0f",
			ps.level, len(m.Coarse.Cells), len(m.Fine.Cells), m.Fine.HPWL())
		ps = ml.newLevelState(ps.level - 1)
	}
}
