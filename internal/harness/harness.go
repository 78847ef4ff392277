// Package harness regenerates every table and figure of the paper's
// evaluation (Figures 1-11). Each RunFigN function states what its figure
// varies — dataset, x-axis, one engine call per series, the check that the
// series agree, notes — and Result.sweep executes it; the Result's String()
// prints the same series the paper plots.
//
// Experiments run on laptop-sized datasets but report paper-scale virtual
// runtimes and costs via cloudsim's Scaled config/pricing (see
// cloudsim.Config.Scaled); selectivities, request counts and row mixes all
// scale linearly, so the figures' shapes — who wins, by what factor, where
// the crossovers fall — are preserved. The measured tables are pinned under
// testdata/golden, one file per figure.
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
	stores       map[string]*store.Store // by dataset: "tpch", "groups skew1.1", "floats 10", ...
	tpchColumnar bool
}

// NewEnv returns an Env at the given scale.
func NewEnv(s Scale) *Env {
	return &Env{Scale: s, stores: map[string]*store.Store{}}
}

// dataset opens a DB over one of the Env's datasets, building the dataset
// on first use; canceling ctx aborts a first-call build. A figure hands
// Result.sweep the dataset it runs over.
type dataset func(ctx context.Context) (*engine.DB, error)

// stored returns the store cached under key, built on first use.
func (env *Env) stored(key string, build func(*store.Store) error) (*store.Store, error) {
	env.mu.Lock()
	defer env.mu.Unlock()
	st, ok := env.stores[key]
	if !ok {
		st = store.New()
		if err := build(st); err != nil {
			return nil, err
		}
		env.stores[key] = st
	}
	return st, nil
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
func (env *Env) scaledDB(st *store.Store, bucket string, dataRatio float64, eopts []engine.Option, bopts ...s3api.Option) (*engine.DB, error) {
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

// tpchSpec is the TPC-H instance the Env generates.
func (env *Env) tpchSpec() tpch.Dataset {
	return tpch.Dataset{SF: env.Scale.TPCHSF, Seed: env.Scale.Seed, Bucket: "tpch", Partitions: env.Scale.Partitions}
}

// TPCH is the TPC-H dataset (with the Fig. 1 index built), virtual time
// reported at PaperSF. Backend options configure the simulated S3 backend
// (capabilities, profile).
func (env *Env) TPCH(bopts ...s3api.Option) dataset { return env.TPCHWith(nil, bopts...) }

// TPCHWith is TPCH with additional engine options.
func (env *Env) TPCHWith(eopts []engine.Option, bopts ...s3api.Option) dataset {
	return func(ctx context.Context) (*engine.DB, error) {
		ratio := env.Scale.PaperSF / env.Scale.TPCHSF
		st, err := env.stored("tpch", func(st *store.Store) error {
			if _, err := tpch.LoadWithIndexes(ctx, st, env.tpchSpec()); err != nil {
				return err
			}
			// Fig. 1's index, built as any index is: through the catalog.
			db, err := env.scaledDB(st, "tpch", ratio, nil)
			if err != nil {
				return err
			}
			return db.CreateIndex(ctx, "lineitem", "l_orderkey")
		})
		if err != nil {
			return nil, err
		}
		return env.scaledDB(st, "tpch", ratio, eopts, bopts...)
	}
}

const paperGroupTableBytes = 10 << 30 // the 10 GB synthetic table

// GroupTable is the synthetic group-by table: uniform (Fig. 5) when
// theta < 0, Zipf-skewed otherwise (Figs. 6-7).
func (env *Env) GroupTable(theta float64, bopts ...s3api.Option) dataset {
	return func(ctx context.Context) (*engine.DB, error) {
		spec := workload.UniformSpec(env.Scale.GroupRows, env.Scale.Seed)
		if theta >= 0 {
			spec = workload.SkewedSpec(env.Scale.GroupRows, theta, env.Scale.Seed)
		}
		st, err := env.stored(fmt.Sprintf("groups skew%.1f", theta), func(st *store.Store) error {
			return engine.PartitionTable(ctx, st, "synth", "groups", spec.Header(), spec.Generate(), env.Scale.Partitions)
		})
		if err != nil {
			return nil, err
		}
		ratio := float64(paperGroupTableBytes) / float64(st.TableSize("synth", "groups"))
		return env.scaledDB(st, "synth", ratio, nil, bopts...)
	}
}

// FloatTables is the Fig. 11 tables of one column count: a CSV table
// "fcsv" and a columnar table "fcol", scaled to the paper's 100
// MB-per-column objects.
func (env *Env) FloatTables(cols int) dataset {
	return func(ctx context.Context) (*engine.DB, error) {
		st, err := env.stored(fmt.Sprint("floats ", cols), func(st *store.Store) error {
			header, rows := workload.FloatTable(env.Scale.FloatRows, cols, env.Scale.Seed)
			if err := engine.PartitionTable(ctx, st, "fmt", "fcsv", header, rows, env.Scale.Partitions); err != nil {
				return err
			}
			groupRows := env.Scale.FloatRows/env.Scale.Partitions/4 + 1
			return engine.PartitionTableColumnar(st, "fmt", "fcol",
				workload.FloatSchema(cols), workload.FloatRowsTyped(rows), env.Scale.Partitions, groupRows, true)
		})
		if err != nil {
			return nil, err
		}
		ratio := float64(cols) * 100e6 / float64(st.TableSize("fmt", "fcsv"))
		return env.scaledDB(st, "fmt", ratio, nil)
	}
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

// call is what a series does at one x value: it returns its answer and the
// execution that carries the meter. note reads a point's extras off the
// finished execution, and a suffix for the series name (what the planner
// chose). check is a figure's agreement check over the series' answers, in
// series order.
type (
	call  = func(context.Context) (*engine.Relation, *engine.Exec, error)
	note  = func(*engine.Exec, *engine.Relation) (suffix string, extra map[string]float64, err error)
	check = func([]*engine.Relation) error
)

// series is one line of a figure: at every x value it makes one engine
// call, and the execution's virtual runtime and cost become the point.
type series struct {
	// name labels the line; a series without one is a reference: it runs,
	// the agreement check sees its answer, nothing is plotted.
	name string
	// run makes the call (see op and query); note, where the figure reports
	// extras or names the series after the planner's choice, reads them off.
	run  call
	note note
}

// op is a series' call through the operator API: f runs on a fresh Exec of
// db.
func op(db *engine.DB, f func(*engine.Exec) (*engine.Relation, error)) call {
	return func(ctx context.Context) (*engine.Relation, *engine.Exec, error) {
		e := db.NewExecContext(ctx)
		rel, err := f(e)
		return rel, e, err
	}
}

// query is a series' call through the SQL front end.
func query(db *engine.DB, sql string) call {
	return func(ctx context.Context) (*engine.Relation, *engine.Exec, error) { return db.QueryContext(ctx, sql) }
}

// forced is a series' call of sql with its single-table access decision
// forced to strategy (engine.DB.QueryForced): the Section IV filters and the
// server-side and filtered group-bys are one statement on the planner's
// baseline and filtered access paths.
func forced(db *engine.DB, strategy, sql string) call {
	return func(ctx context.Context) (*engine.Relation, *engine.Exec, error) {
		return db.QueryForced(ctx, sql, strategy)
	}
}

// sweep runs a figure over the dataset it opens: at the i-th x value, at
// states the series and the check their answers must pass (nil for none);
// every series runs, in order, its point is recorded, and the check is
// applied to the answers in series order. It returns r so a body can end
// in it.
func (r *Result) sweep(ctx context.Context, open dataset, xs []string, at func(db *engine.DB, i int) ([]series, check)) (*Result, error) {
	db, err := open(ctx)
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		ss, agree := at(db, i)
		rels := make([]*engine.Relation, len(ss))
		for j, s := range ss {
			rel, e, err := s.run(ctx)
			var suffix string
			var extra map[string]float64
			if err == nil && s.note != nil {
				suffix, extra, err = s.note(e, rel)
			}
			if err != nil {
				return nil, fmt.Errorf("harness: %s: %s at %s: %w", r.ID, s.name, x, err)
			}
			rels[j] = rel
			if s.name != "" {
				r.Points = append(r.Points, Point{Series: s.name + suffix, X: x, RuntimeSec: e.RuntimeSeconds(), Cost: e.Cost(), Extra: extra})
			}
		}
		if agree != nil {
			if err := agree(rels); err != nil {
				return nil, fmt.Errorf("harness: %s at %s: %w", r.ID, x, err)
			}
		}
	}
	return r, nil
}

// agreeOn builds the commonest check: every series' answer has the same
// key (a row count, a COUNT(*) cell, the rendered relation).
func agreeOn[K comparable](what string, key func(*engine.Relation) K) check {
	return func(rels []*engine.Relation) error {
		keys := make([]K, len(rels))
		for i, rel := range rels {
			keys[i] = key(rel)
			if keys[i] != keys[0] {
				return fmt.Errorf("series disagree on %s: %v", what, keys[:i+1])
			}
		}
		return nil
	}
}

var sameAnswer = agreeOn("the answer", (*engine.Relation).String)

// sameRows is the figures' answer check: every series returns the same rows,
// byte for byte as rendered, in any order.
var sameRows = agreeOn("the rows", func(rel *engine.Relation) string {
	lines := make([]string, len(rel.Rows))
	for i, r := range rel.Rows {
		lines[i] = fmt.Sprint(r)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
})

// acrossX extends an agreement check over the whole sweep: at every x the
// first series' answer must agree with its answer at the first x.
func acrossX(c check) check {
	var first *engine.Relation
	return func(rels []*engine.Relation) error {
		if first == nil {
			first = rels[0]
		}
		return c([]*engine.Relation{first, rels[0]})
	}
}

// labels renders an x-axis.
func labels[T any](format string, vals []T) []string {
	xs := make([]string, len(vals))
	for i, v := range vals {
		xs[i] = fmt.Sprintf(format, v)
	}
	return xs
}

// SeriesNames returns the distinct series in first-seen order.
func (r *Result) SeriesNames() []string {
	return r.distinct(func(p Point) string { return p.Series })
}

// distinct returns the points' distinct keys in first-seen order.
func (r *Result) distinct(key func(Point) string) []string {
	var keys []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if k := key(p); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
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
	xs := r.distinct(func(p Point) string { return p.X })
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
