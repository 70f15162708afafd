package core

// The multilevel clustered flow (Options.Levels ≥ 2): the design is
// coarsened Levels−1 times by internal/cluster's heavy-edge matcher, the
// coarsest level is placed from scratch, and each coarse solution is
// interpolated down to seed the next finer level until the original design
// runs the full pipeline. Every level reuses the flat stage pipeline
// unchanged — a level is just a PlacementState over the level's design with
// derived options — so checkpoint/resume, boundary preemption and the
// byte-identity guarantees all carry over: the hierarchy is a pure function
// of the input design (topology-deterministic matching, position-only
// centroids that are themselves deterministic), so a resumed process
// rebuilds the identical cluster maps and continues any level mid-flight.
//
// Telemetry and boundary points of coarse level k are prefixed "L<k>/"
// ("L2/wirelength", "L1/route_iter:3"); level 0 keeps the flat names, so
// flat runs are byte-identical to builds without this file.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/netlist"
)

// mlRun is the shared context of one multilevel run: the cluster hierarchy
// plus the outer run identity (the caller's design and post-default options)
// that checkpoints serialize regardless of which level they capture.
type mlRun struct {
	orig  *netlist.Design // the finest (caller's) design
	outer Options         // post-setDefaults caller options

	maps     []*cluster.Map // maps[k] coarsens level k onto level k+1
	topLevel int            // coarsest level actually built (len(maps))
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

// newLevelState builds a fresh PlacementState for level k.
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

// placeMultilevel is PlaceContext's Levels ≥ 2 path.
func placeMultilevel(ctx context.Context, d *netlist.Design, opt Options) (*Result, error) {
	maps, err := cluster.Hierarchy(d, opt.Levels, opt.ClusterMaxSize)
	if err != nil {
		return nil, fmt.Errorf("core: multilevel: %w", err)
	}
	ml := &mlRun{orig: d, outer: opt, maps: maps, topLevel: len(maps)}
	sizes := make([]string, 0, ml.topLevel+1)
	for k := ml.topLevel; k >= 0; k-- {
		sizes = append(sizes, fmt.Sprintf("%d", len(ml.design(k).Cells)))
	}
	opt.logf("multilevel: %d levels, cells coarsest→finest %s",
		ml.topLevel+1, strings.Join(sizes, " → "))
	return ml.descend(ctx, ml.newLevelState(ml.topLevel))
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

// resumeMultilevel continues a checkpointed multilevel run: it rebuilds the
// hierarchy from the (identical) input design, restores the captured level's
// state mid-pipeline, and descends through the remaining levels exactly as
// the uninterrupted run would have.
func resumeMultilevel(ctx context.Context, d *netlist.Design, ck *checkpoint, merged Options) (*Result, error) {
	if err := ck.validateDesign(d); err != nil {
		return nil, err
	}
	ml := &mlRun{orig: d, outer: merged, topLevel: ck.MLTop}
	// The hierarchy is only needed while coarse levels remain: a run
	// checkpointed at level 0 has consumed every cluster map already.
	if ck.MLLevel > 0 {
		maps, err := cluster.Hierarchy(d, merged.Levels, merged.ClusterMaxSize)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if len(maps) != ck.MLTop {
			return nil, fmt.Errorf("core: resume: hierarchy rebuilt with %d coarse levels, checkpoint was taken with %d",
				len(maps), ck.MLTop)
		}
		ml.maps = maps
		// No interpolation replay is needed for levels already completed:
		// the checkpoint's cellpos overlay carries the captured level's
		// positions, and every finer level's seed positions are produced by
		// the Interpolate calls the descent below will still perform.
	}
	lvD := ml.design(ck.MLLevel)
	if len(lvD.Cells) != ck.MLCells {
		return nil, fmt.Errorf("core: resume: level %d design has %d cells, checkpoint was taken on %d",
			ck.MLLevel, len(lvD.Cells), ck.MLCells)
	}
	ps, err := ck.restoreInto(lvD, ml.levelOptions(ck.MLLevel), ck.MLLevel, ml)
	if err != nil {
		return nil, err
	}
	return ml.descend(ctx, ps)
}
