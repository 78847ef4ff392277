package harness

import "context"

// Figure is one table the harness regenerates.
type Figure struct {
	// ID names the figure everywhere: benchfig -fig, Result.ID and the
	// golden file under testdata/golden.
	ID  string
	Run func(context.Context, *Env) (*Result, error)
	// Ablation marks the Section-X extension ablations (benchfig
	// -ablations); the rest are the paper's figures and this repo's
	// extension figures.
	Ablation bool
}

// Figures is every figure, in paper order, extensions after. It is the only
// list of them: benchfig's -fig dispatch and sweeps and the golden coverage
// test all read it.
var Figures = []Figure{
	{ID: "Fig1", Run: RunFig1}, {ID: "Fig2", Run: RunFig2}, {ID: "Fig3", Run: RunFig3},
	{ID: "Fig4", Run: RunFig4}, {ID: "Fig5", Run: RunFig5}, {ID: "Fig6", Run: RunFig6},
	{ID: "Fig7", Run: RunFig7}, {ID: "Fig8", Run: RunFig8}, {ID: "Fig9", Run: RunFig9},
	{ID: "Fig10", Run: RunFig10}, {ID: "Fig11", Run: RunFig11},
	{ID: "Parallel", Run: RunParallel}, {ID: "Backends", Run: RunBackends},
	{ID: "Planner", Run: RunPlanner}, {ID: "Cache", Run: RunCache}, {ID: "Index", Run: RunIndex},
	{ID: "Serve", Run: RunServe}, {ID: "Shared", Run: RunShared},
	{ID: "Fig1-S1", Run: RunFig1MultiRange, Ablation: true},
	{ID: "Fig4-S3", Run: RunFig4Bitwise, Ablation: true},
	{ID: "Fig6-S4", Run: RunFig6PartialGroupBy, Ablation: true},
	{ID: "TopKModel", Run: RunTopKModel, Ablation: true},
	{ID: "Sec9", Run: RunSec9TPCHFormats, Ablation: true},
	{ID: "S5", Run: RunS5Pricing, Ablation: true},
}

// RunFigures runs, in order, the ablations or everything else. Canceling
// ctx stops between (and, through the engine, inside) figure runs.
func RunFigures(ctx context.Context, env *Env, ablations bool) ([]*Result, error) {
	var out []*Result
	for _, f := range Figures {
		if f.Ablation != ablations {
			continue
		}
		r, err := f.Run(ctx, env)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
