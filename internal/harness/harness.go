// Package harness regenerates every table and figure of the paper's
// evaluation (Figures 1-11). Each RunFigN function sets up the workload,
// executes the swept configurations on the engine, and returns a Result
// whose String() prints the same series the paper plots.
//
// Experiments run on laptop-sized datasets but report paper-scale virtual
// runtimes and costs via cloudsim's Scaled config/pricing (see
// cloudsim.Config.Scaled); selectivities, request counts and row mixes all
// scale linearly, so the figures' shapes — who wins, by what factor, where
// the crossovers fall — are preserved. EXPERIMENTS.md records paper-vs-
// measured values per figure.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/workload"
)

// Scale controls dataset sizes. The paper's reference points: TPC-H SF 10
// (CSV, ~10 GB), synthetic 10 GB group-by tables, 100 MB-per-column format
// tables, all 32-way partitioned.
type Scale struct {
	// TPCHSF is the generated TPC-H scale factor.
	TPCHSF float64
	// PaperSF is the scale factor virtual time is reported at (10).
	PaperSF float64
	// GroupRows is the synthetic group-by table's row count; virtual time
	// reports it as the paper's 10 GB table.
	GroupRows int
	// FloatRows is the Fig. 11 per-table row count.
	FloatRows int
	// Partitions per table.
	Partitions int
	// Seed drives every generator.
	Seed int64
}

// SmallScale is sized for unit tests (sub-second figures).
func SmallScale() Scale {
	return Scale{TPCHSF: 0.002, PaperSF: 10, GroupRows: 4000, FloatRows: 3000, Partitions: 4, Seed: 42}
}

// DefaultScale is sized for the benchmark harness.
func DefaultScale() Scale {
	return Scale{TPCHSF: 0.01, PaperSF: 10, GroupRows: 20000, FloatRows: 10000, Partitions: 8, Seed: 42}
}

// Env lazily builds and caches the datasets experiments share.
type Env struct {
	Scale Scale

	mu           sync.Mutex
	tpchStore    *store.Store
	tpchDataset  tpch.Dataset
	tpchColumnar bool
	groupStores  map[string]*store.Store // key: "uniform" or "skew<theta>"
	floatStores  map[string]*store.Store // key: "<cols>"
}

// NewEnv returns an Env at the given scale.
func NewEnv(s Scale) *Env {
	return &Env{
		Scale:       s,
		groupStores: map[string]*store.Store{},
		floatStores: map[string]*store.Store{},
	}
}

// paperPartitions is the paper's per-table object count (Section III runs
// 32-way parallel loads).
const paperPartitions = 32

// scaledDB wraps a store in a DB reporting paper-scale virtual time and
// cost: dataRatio = paperBytes/actualBytes, and the partition ratio maps
// this run's partition count onto the paper's 32. The in-process backend
// simulates in-region S3 (cloudsim.S3Profile); bopts configure it, e.g.
// enabling Section-X select capabilities or swapping the profile; eopts add
// engine options (e.g. engine.WithResultCache for the Cache figure).
func (env *Env) scaledDB(st *store.Store, bucket string, dataRatio float64, eopts []engine.Option, bopts ...s3api.InProcOption) (*engine.DB, error) {
	opts := []engine.Option{
		engine.WithBackend("s3sim", s3api.NewInProc(st, bopts...)),
		engine.WithScale(cloudsim.Scale{
			DataRatio: dataRatio,
			PartRatio: float64(paperPartitions) / float64(env.Scale.Partitions),
		}),
	}
	opts = append(opts, eopts...)
	return engine.Open(bucket, opts...)
}

// TPCH returns a DB over the TPC-H dataset (with the Fig. 1 index built),
// with virtual time reported at PaperSF. Backend options configure the
// simulated S3 backend (capabilities, profile). Canceling ctx aborts a
// first-call dataset build.
func (env *Env) TPCH(ctx context.Context, bopts ...s3api.InProcOption) (*engine.DB, error) {
	return env.TPCHWith(ctx, nil, bopts...)
}

// TPCHWith is TPCH with additional engine options.
func (env *Env) TPCHWith(ctx context.Context, eopts []engine.Option, bopts ...s3api.InProcOption) (*engine.DB, error) {
	env.mu.Lock()
	defer env.mu.Unlock()
	ratio := env.Scale.PaperSF / env.Scale.TPCHSF
	if env.tpchStore == nil {
		st := store.New()
		ds, err := tpch.LoadWithIndexes(ctx, st, tpch.Dataset{
			SF: env.Scale.TPCHSF, Seed: env.Scale.Seed,
			Bucket: "tpch", Partitions: env.Scale.Partitions,
		})
		if err != nil {
			return nil, err
		}
		// Fig. 1's index, built as any index is: through the catalog.
		db, err := env.scaledDB(st, ds.Bucket, ratio, nil)
		if err == nil {
			err = db.CreateIndex(ctx, "lineitem", "l_orderkey")
		}
		if err != nil {
			return nil, err
		}
		env.tpchStore = st
		env.tpchDataset = ds
	}
	return env.scaledDB(env.tpchStore, env.tpchDataset.Bucket, ratio, eopts, bopts...)
}

const paperGroupTableBytes = 10 << 30 // the 10 GB synthetic table

// GroupTable returns a DB over the synthetic group-by table: uniform
// (Fig. 5) when theta < 0, Zipf-skewed otherwise (Figs. 6-7).
func (env *Env) GroupTable(ctx context.Context, theta float64, bopts ...s3api.InProcOption) (*engine.DB, error) {
	key := "uniform"
	if theta >= 0 {
		key = fmt.Sprintf("skew%.1f", theta)
	}
	env.mu.Lock()
	st, ok := env.groupStores[key]
	env.mu.Unlock()
	if !ok {
		var spec workload.GroupTableSpec
		if theta < 0 {
			spec = workload.UniformSpec(env.Scale.GroupRows, env.Scale.Seed)
		} else {
			spec = workload.SkewedSpec(env.Scale.GroupRows, theta, env.Scale.Seed)
		}
		st = store.New()
		if err := engine.PartitionTable(ctx, st, "synth", "groups",
			spec.Header(), spec.Generate(), env.Scale.Partitions); err != nil {
			return nil, err
		}
		env.mu.Lock()
		env.groupStores[key] = st
		env.mu.Unlock()
	}
	ratio := float64(paperGroupTableBytes) / float64(st.TableSize("synth", "groups"))
	return env.scaledDB(st, "synth", ratio, nil, bopts...)
}

// FloatTables returns a DB over the Fig. 11 tables: for each column count,
// a CSV table "fcsv<cols>" and a columnar table "fcol<cols>". The returned
// ratio scales to the paper's 100 MB-per-column objects.
func (env *Env) FloatTables(ctx context.Context, cols int) (*engine.DB, error) {
	key := fmt.Sprint(cols)
	env.mu.Lock()
	st, ok := env.floatStores[key]
	env.mu.Unlock()
	if !ok {
		header, rows := workload.FloatTable(env.Scale.FloatRows, cols, env.Scale.Seed)
		st = store.New()
		if err := engine.PartitionTable(ctx, st, "fmt", "fcsv",
			header, rows, env.Scale.Partitions); err != nil {
			return nil, err
		}
		typed := workload.FloatRowsTyped(rows)
		groupRows := env.Scale.FloatRows/env.Scale.Partitions/4 + 1
		if err := engine.PartitionTableColumnar(st, "fmt", "fcol",
			workload.FloatSchema(cols), typed, env.Scale.Partitions, groupRows, true); err != nil {
			return nil, err
		}
		env.mu.Lock()
		env.floatStores[key] = st
		env.mu.Unlock()
	}
	paperBytes := float64(cols) * 100e6
	ratio := paperBytes / float64(st.TableSize("fmt", "fcsv"))
	return env.scaledDB(st, "fmt", ratio, nil)
}

// Point is one measured configuration of an experiment.
type Point struct {
	Series string
	X      string
	// RuntimeSec is the paper-scale virtual runtime.
	RuntimeSec float64
	// Cost is the paper-scale dollar cost.
	Cost cloudsim.CostBreakdown
	// Extra carries figure-specific values (bytes returned, phase splits).
	Extra map[string]float64
}

// Result is one regenerated figure/table.
type Result struct {
	ID     string
	Title  string
	XLabel string
	Points []Point
	Notes  []string
}

func (r *Result) add(series, x string, e *engine.Exec, extra map[string]float64) {
	r.Points = append(r.Points, Point{
		Series:     series,
		X:          x,
		RuntimeSec: e.RuntimeSeconds(),
		Cost:       e.Cost(),
		Extra:      extra,
	})
}

// SeriesNames returns the distinct series in first-seen order.
func (r *Result) SeriesNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			names = append(names, p.Series)
		}
	}
	return names
}

// Get returns the point for (series, x).
func (r *Result) Get(series, x string) (Point, bool) {
	for _, p := range r.Points {
		if p.Series == series && p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// String renders the paper-style table: one row per x value, runtime and
// cost columns per series.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	series := r.SeriesNames()
	var xs []string
	seenX := map[string]bool{}
	for _, p := range r.Points {
		if !seenX[p.X] {
			seenX[p.X] = true
			xs = append(xs, p.X)
		}
	}
	fmt.Fprintf(&b, "%-16s", r.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " | %22s", s)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-16s", "")
	for range series {
		fmt.Fprintf(&b, " | %10s %11s", "runtime(s)", "cost($)")
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-16s", x)
		for _, s := range series {
			if p, ok := r.Get(s, x); ok {
				fmt.Fprintf(&b, " | %10.2f %11.6f", p.RuntimeSec, p.Cost.Total())
			} else {
				fmt.Fprintf(&b, " | %10s %11s", "-", "-")
			}
		}
		b.WriteByte('\n')
	}
	// Extra columns, if any, rendered per point.
	extraKeys := map[string]bool{}
	for _, p := range r.Points {
		for k := range p.Extra {
			extraKeys[k] = true
		}
	}
	if len(extraKeys) > 0 {
		var keys []string
		for k := range extraKeys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "-- extra: %s --\n", strings.Join(keys, ", "))
		for _, p := range r.Points {
			if len(p.Extra) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-16s %-24s", p.X, p.Series)
			for _, k := range keys {
				if v, ok := p.Extra[k]; ok {
					fmt.Fprintf(&b, " %s=%.3f", k, v)
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
