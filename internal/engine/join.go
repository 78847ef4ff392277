package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"pushdowndb/internal/bloom"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// ErrNonIntegerJoinKey reports a Bloom join attempted over a key column
// that is not integer-typed; the filter encodings hash int64 keys. The
// planner uses it (via errors.Is) to degrade a planned Bloom join to the
// baseline/filtered strategy at run time.
var ErrNonIntegerJoinKey = errors.New("bloom join requires integer keys")

// Section V: join algorithms. All three implement a hash join whose build
// side is the (smaller) left table; they differ in how much work is pushed
// into S3.

// JoinSpec describes a two-table equi-join.
type JoinSpec struct {
	LeftTable, RightTable string
	LeftKey, RightKey     string
	// LeftFilter / RightFilter are SQL predicates over each table's
	// columns ("" = none).
	LeftFilter, RightFilter string
	// LeftProject / RightProject are the columns needed downstream
	// (nil = all). Only the Bloom join pushes projections (the paper's
	// filtered join pushes selection only; see Section V-B1).
	LeftProject, RightProject []string
	// TargetFPR is the Bloom filter's target false-positive rate
	// (default 0.01, the paper's sweet spot in Fig. 4).
	TargetFPR float64
	// Bitwise uses the Suggestion-3 BLOOM_CONTAINS predicate instead of
	// the '0'/'1'-string SUBSTRING encoding. Requires the DB's
	// capabilities to allow it.
	Bitwise bool
	// Seed makes the Bloom hash functions deterministic.
	Seed int64
}

// join is a two-table equi-join ready to run: each side a scan whose filter
// is parsed and whose request — selection and projection pushed — is built.
// The planner makes one from its scans, a JoinSpec from its text (run).
type join struct {
	left, right       *TableScan
	leftKey, rightKey string
	fpr               float64
	bitwise           bool
	seed              int64
}

// run is the JoinSpec operators' door: it parses js's filters, once, into
// the join they describe and runs op over it.
func (js JoinSpec) run(e *Exec, op func(join) (*Relation, error)) (*Relation, error) {
	j := join{leftKey: js.LeftKey, rightKey: js.RightKey, fpr: js.TargetFPR, bitwise: js.Bitwise, seed: js.Seed}
	if j.fpr <= 0 {
		j.fpr = 0.01
	}
	var err error
	if j.left, err = e.db.joinScan(js.LeftTable, js.LeftFilter, js.LeftProject); err != nil {
		return nil, err
	}
	if j.right, err = e.db.joinScan(js.RightTable, js.RightFilter, js.RightProject); err != nil {
		return nil, err
	}
	return op(j)
}

// joinScan is the scan of table pushing the predicate filter ("" = none)
// and the projection project (nil = every column).
func (db *DB) joinScan(table, filter string, project []string) (*TableScan, error) {
	pred, err := parsePredicate(filter)
	if err != nil {
		return nil, err
	}
	return &TableScan{Table: table, Filter: pred, Project: project,
		req: db.request(table, scanSelect(columnItems(project), pred))}, nil
}

// BaselineJoin loads both tables in full with plain GETs and evaluates
// filters and the join locally. No S3 Select anywhere.
func (e *Exec) BaselineJoin(js JoinSpec) (*Relation, error) { return js.run(e, e.baselineJoin) }

func (e *Exec) baselineJoin(j join) (*Relation, error) {
	defer e.scope("baseline join").end(nil)
	stage := e.NextStage()
	// The server-side filter pass touches every loaded row; meter it in
	// the load phases so execution matches the planner's baseline
	// estimate (cloudsim.EstimateBaselineJoin).
	rels, err := e.loadTables(stage, 1, Load{Table: j.left.Table}, Load{Table: j.right.Table})
	if err != nil {
		return nil, err
	}
	left, right := rels[0], rels[1]
	if left, err = e.filterLocal(left, j.left.Filter); err != nil {
		return nil, err
	}
	if right, err = e.filterLocal(right, j.right.Filter); err != nil {
		return nil, err
	}
	return e.hashJoinLocal(stage, left, right, j.leftKey, j.rightKey)
}

// FilteredJoin pushes each side's selection (not projection) into S3
// Select and joins locally. Both scans run in parallel, like the paper's
// filtered join.
func (e *Exec) FilteredJoin(js JoinSpec) (*Relation, error) { return js.run(e, e.filteredJoin) }

func (e *Exec) filteredJoin(j join) (*Relation, error) {
	stage := e.NextStage()
	rels := make([]*Relation, 2)
	scan := func(i int, sc *TableScan) func() error {
		return func() (err error) {
			rels[i], err = e.selectMetered("filtered scan "+sc.Table, stage, sc.Table,
				e.db.request(sc.Table, scanSelect(nil, sc.Filter)), 0)
			return err
		}
	}
	if err := concurrently(scan(0, j.left), scan(1, j.right)); err != nil {
		return nil, err
	}
	return e.hashJoinLocal(stage, rels[0], rels[1], j.leftKey, j.rightKey)
}

// BloomJoin implements Section V-A2: load the build side with selection
// and projection pushed down, construct a Bloom filter over its join keys,
// then ship the filter to S3 as a predicate on the probe side. When the
// filter cannot fit S3 Select's 256 KB expression limit even after FPR
// degradation, it falls back to a filtered join whose two scans are forced
// serial (the paper's "degraded Bloom join").
func (e *Exec) BloomJoin(js JoinSpec) (*Relation, error) { return js.run(e, e.bloomJoin) }

func (e *Exec) bloomJoin(j join) (*Relation, error) {
	defer e.scope("bloom join").end(nil)
	// Phase 1: build side with pushdown; two units of row work per build
	// row: the hash table and the filter insert.
	left, err := e.selectMetered("bloom build "+j.left.Table, e.NextStage(), j.left.Table, j.left.req, 2)
	if err != nil {
		return nil, err
	}
	right, stage2, err := e.bloomProbe(left, j)
	if err != nil {
		return nil, err
	}
	// The final hash join overlaps the probe scan; the probe's own stage
	// keeps the attribution correct even when concurrent work allocates
	// stages on this Exec.
	return e.hashJoinLocal(stage2, left, right, j.leftKey, j.rightKey)
}

// BloomProbe builds a Bloom filter over left's key column and scans
// rightTable with the filter (plus rightFilter) pushed to S3 Select. It is
// the reusable second half of BloomJoin, used directly by multi-join
// queries (e.g. TPC-H Q3) whose build side is an intermediate relation.
// When the filter cannot fit the 256 KB expression limit even after FPR
// degradation, the probe degrades to a plain filtered scan. The returned
// int is the stage the probe scan ran in, so callers can attribute
// follow-on work (the hash join) to the same stage.
func (e *Exec) BloomProbe(left *Relation, leftKey, rightTable, rightKey, rightFilter string, rightProject []string, fpr float64, bitwise bool, seed int64) (*Relation, int, error) {
	right, err := e.db.joinScan(rightTable, rightFilter, rightProject)
	if err != nil {
		return nil, 0, err
	}
	return e.bloomProbe(left, join{right: right, leftKey: leftKey, rightKey: rightKey, fpr: fpr, bitwise: bitwise, seed: seed})
}

// bloomProbe is BloomProbe of left, the build side, into j.right; j.left is
// not read.
func (e *Exec) bloomProbe(left *Relation, j join) (*Relation, int, error) {
	li := left.ColIndex(j.leftKey)
	if li < 0 {
		return nil, 0, fmt.Errorf("engine: bloom join key %q not in %v", j.leftKey, left.Cols)
	}
	// Key extraction partitions across the worker budget; the per-span
	// slices concatenate in worker order, so the key sequence (and hence
	// the fitted filter) matches the sequential walk exactly.
	sps := vec.RowSpans(len(left.Rows), e.workers())
	keyParts := make([][]int64, len(sps))
	if err := vec.RunSpans(sps, func(w int, sp vec.Span) error {
		part := make([]int64, 0, sp.Hi-sp.Lo)
		for i := sp.Lo; i < sp.Hi; i++ {
			v := left.Rows[i][li]
			if v.IsNull() {
				continue
			}
			k, ok := v.IntNum()
			if !ok {
				return fmt.Errorf("engine: %w, got %s (%v)",
					ErrNonIntegerJoinKey, v.Kind(), v)
			}
			part = append(part, k)
		}
		keyParts[w] = part
		return nil
	}); err != nil {
		return nil, 0, err
	}
	keys := make([]int64, 0, len(left.Rows))
	for _, part := range keyParts {
		keys = append(keys, part...)
	}

	rng := rand.New(rand.NewSource(j.seed + 1))
	key := &sqlparse.Column{Name: j.rightKey}
	var predicate sqlparse.Expr
	if len(keys) > 0 {
		if j.bitwise {
			f := bloom.New(len(keys), j.fpr, rng)
			for _, k := range keys {
				f.Add(k)
			}
			predicate = f.SQLPredicateBitwise(key)
			if len(predicate.String()) > selectengine.MaxSQLBytes {
				predicate = nil
			}
		} else {
			// The 256 KB expression limit binds at deployment scale: when
			// the run simulates a larger dataset (Sim.DataRatio > 1), the
			// FPR degradation decision is made against the paper-scale key
			// count, so Section V-B1's behaviour appears at the right
			// selectivities (e.g. Fig. 2's loose customer filters).
			effKeys := int(float64(len(keys)) * max(e.db.Sim.DataRatio, 1))
			degraded, ok := bloom.DegradeFPR(effKeys, j.fpr, selectengine.MaxSQLBytes-1024)
			if ok {
				if _, pred, _, ok2 := bloom.Fit(keys, degraded, key, selectengine.MaxSQLBytes-1024, rng); ok2 {
					predicate = pred
				}
			}
		}
	} else {
		// Empty build side: nothing can match; probe with a false
		// predicate to keep the pipeline shape (S3 still scans).
		predicate = &sqlparse.Binary{Op: sqlparse.OpEq, L: &sqlparse.Literal{Val: value.Int(1)}, R: &sqlparse.Literal{Val: value.Int(0)}}
	}

	// Probe phase is serial after the build (the paper's degraded Bloom
	// join keeps this serialization even when falling back).
	stage2 := e.NextStage()
	probe := j.right.req
	if predicate != nil {
		where := predicate
		if j.right.Filter != nil {
			where = &sqlparse.Binary{Op: sqlparse.OpAnd, L: j.right.Filter, R: predicate}
		}
		probe = e.db.request(j.right.Table, scanSelect(columnItems(j.right.Project), where))
	}
	rel, err := e.selectMetered("bloom probe "+j.right.Table, stage2, j.right.Table, probe, 0)
	return rel, stage2, err
}

// JoinAggregate is a convenience for the paper's evaluation query
// (Listing 2): run the join with the chosen algorithm and return the
// aggregate of an expression over the join result, e.g. SUM(o_totalprice).
func (e *Exec) JoinAggregate(js JoinSpec, algorithm string, aggItems string) (*Relation, error) {
	items, err := parseItems(aggItems)
	if err != nil {
		return nil, err
	}
	var joined *Relation
	switch algorithm {
	case "baseline":
		joined, err = e.BaselineJoin(js)
	case "filtered":
		joined, err = e.FilteredJoin(js)
	case "bloom":
		joined, err = e.BloomJoin(js)
	default:
		return nil, fmt.Errorf("engine: unknown join algorithm %q", algorithm)
	}
	if err != nil {
		return nil, err
	}
	return e.groupByLocal(joined, nil, nil, items)
}
