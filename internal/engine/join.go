package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"pushdowndb/internal/bloom"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
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

func (js JoinSpec) fpr() float64 {
	if js.TargetFPR <= 0 {
		return 0.01
	}
	return js.TargetFPR
}

// BaselineJoin loads both tables in full with plain GETs and evaluates
// filters and the join locally. No S3 Select anywhere.
func (e *Exec) BaselineJoin(js JoinSpec) (*Relation, error) {
	leftFilter, err := parsePredicate(js.LeftFilter)
	if err != nil {
		return nil, err
	}
	rightFilter, err := parsePredicate(js.RightFilter)
	if err != nil {
		return nil, err
	}
	return e.baselineJoin(js, leftFilter, rightFilter)
}

// baselineJoin is BaselineJoin over parsed filters (js's filter strings are
// ignored): the planner hands its per-table predicates straight through.
func (e *Exec) baselineJoin(js JoinSpec, leftFilter, rightFilter sqlparse.Expr) (*Relation, error) {
	defer e.scope("baseline join").end(nil)
	stage := e.NextStage()
	// The server-side filter pass touches every loaded row; meter it in
	// the load phases so execution matches the planner's baseline
	// estimate (cloudsim.EstimateBaselineJoin).
	rels, err := e.loadTables(stage, 1, Load{Table: js.LeftTable}, Load{Table: js.RightTable})
	if err != nil {
		return nil, err
	}
	left, right := rels[0], rels[1]
	if left, err = e.filterLocal(left, leftFilter); err != nil {
		return nil, err
	}
	if right, err = e.filterLocal(right, rightFilter); err != nil {
		return nil, err
	}
	return e.hashJoinLocal(stage, left, right, js.LeftKey, js.RightKey)
}

// FilteredJoin pushes each side's selection (not projection) into S3
// Select and joins locally. Both scans run in parallel, like the paper's
// filtered join.
func (e *Exec) FilteredJoin(js JoinSpec) (*Relation, error) {
	stage := e.NextStage()
	var left, right *Relation
	err := concurrently(
		func() (err error) {
			left, err = e.SelectRows("filtered scan "+js.LeftTable, stage, js.LeftTable, projectionSQL(nil, js.LeftFilter))
			return err
		},
		func() (err error) {
			right, err = e.SelectRows("filtered scan "+js.RightTable, stage, js.RightTable, projectionSQL(nil, js.RightFilter))
			return err
		})
	if err != nil {
		return nil, err
	}
	return e.hashJoinLocal(stage, left, right, js.LeftKey, js.RightKey)
}

func projectionSQL(cols []string, filter string) string {
	proj := "*"
	if len(cols) > 0 {
		proj = strings.Join(cols, ", ")
	}
	sql := "SELECT " + proj + " FROM S3Object"
	if filter != "" {
		sql += " WHERE " + filter
	}
	return sql
}

// BloomJoin implements Section V-A2: load the build side with selection
// and projection pushed down, construct a Bloom filter over its join keys,
// then ship the filter to S3 as a predicate on the probe side. When the
// filter cannot fit S3 Select's 256 KB expression limit even after FPR
// degradation, it falls back to a filtered join whose two scans are forced
// serial (the paper's "degraded Bloom join").
func (e *Exec) BloomJoin(js JoinSpec) (*Relation, error) {
	defer e.scope("bloom join").end(nil)
	// Phase 1: build side with pushdown; two units of row work per build
	// row: the hash table and the filter insert.
	left, err := e.selectMetered("bloom build "+js.LeftTable, e.NextStage(),
		js.LeftTable, projectionSQL(js.LeftProject, js.LeftFilter), 2)
	if err != nil {
		return nil, err
	}
	right, stage2, err := e.BloomProbe(left, js.LeftKey, js.RightTable, js.RightKey,
		js.RightFilter, js.RightProject, js.fpr(), js.Bitwise, js.Seed)
	if err != nil {
		return nil, err
	}
	// The final hash join overlaps the probe scan; the probe's own stage
	// keeps the attribution correct even when concurrent work allocates
	// stages on this Exec.
	return e.hashJoinLocal(stage2, left, right, js.LeftKey, js.RightKey)
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
	li := left.ColIndex(leftKey)
	if li < 0 {
		return nil, 0, fmt.Errorf("engine: bloom join key %q not in %v", leftKey, left.Cols)
	}
	// Key extraction partitions across the worker budget; the per-span
	// slices concatenate in worker order, so the key sequence (and hence
	// the fitted filter) matches the sequential walk exactly.
	sps := vec.RowSpans(len(left.Rows), e.workers())
	keyParts := make([][]int64, len(sps))
	if err := vec.RunSpans(sps, func(w int, sp vec.Span) error {
		part := make([]int64, 0, sp.Hi-sp.Lo)
		for i := sp.Lo; i < sp.Hi; i++ {
			v := cell(left.Rows[i], li)
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

	rng := rand.New(rand.NewSource(seed + 1))
	var predicate string
	if len(keys) > 0 {
		if bitwise {
			f := bloom.New(len(keys), fpr, rng)
			for _, k := range keys {
				f.Add(k)
			}
			predicate = f.SQLPredicateBitwise(rightKey)
			if len(predicate) > selectengine.MaxSQLBytes {
				predicate = ""
			}
		} else {
			// The 256 KB expression limit binds at deployment scale: when
			// the run simulates a larger dataset (Sim.DataRatio > 1), the
			// FPR degradation decision is made against the paper-scale key
			// count, so Section V-B1's behaviour appears at the right
			// selectivities (e.g. Fig. 2's loose customer filters).
			effKeys := int(float64(len(keys)) * max(e.db.Sim.DataRatio, 1))
			degraded, ok := bloom.DegradeFPR(effKeys, fpr, selectengine.MaxSQLBytes-1024)
			if ok {
				if _, sql, _, ok2 := bloom.Fit(keys, degraded, rightKey, selectengine.MaxSQLBytes-1024, rng); ok2 {
					predicate = sql
				}
			}
		}
	} else {
		// Empty build side: nothing can match; probe with a false
		// predicate to keep the pipeline shape (S3 still scans).
		predicate = "1 = 0"
	}

	// Probe phase is serial after the build (the paper's degraded Bloom
	// join keeps this serialization even when falling back).
	stage2 := e.NextStage()
	probeSQL := projectionSQL(rightProject, rightFilter)
	if predicate != "" {
		where := predicate
		if rightFilter != "" {
			where = "(" + rightFilter + ") AND (" + predicate + ")"
		}
		probeSQL = projectionSQL(rightProject, where)
	}
	rel, err := e.SelectRows("bloom probe "+rightTable, stage2, rightTable, probeSQL)
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
