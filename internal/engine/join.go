package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"pushdowndb/internal/bloom"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// ErrNonIntegerJoinKey reports a Bloom join attempted over a key column
// that is not integer-typed; the filter encodings hash int64 keys. The
// planner uses it (via errors.Is) to degrade a planned Bloom join to the
// baseline/filtered strategy at run time.
var ErrNonIntegerJoinKey = errors.New("bloom join requires integer keys")

// Section V: join algorithms. All three implement a hash join whose build
// side is the (smaller) left table; they differ in how much work is pushed
// into S3.

// JoinSpec is a two-table equi-join statement and the Bloom filter's knobs.
type JoinSpec struct {
	// SQL is the statement: SELECT * (the joined rows) or aggregates
	// FROM a [x] JOIN b [y] ON x.k = y.k [WHERE ...], every column
	// qualified. a is the build side. Each WHERE conjunct reads one table
	// and is pushed to that side's scan (the paper's filtered join pushes
	// selection only; see Section V-B1); only the Bloom build side ships a
	// projection: its key and the columns the select list reads from it.
	SQL string
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
// The planner makes one from its scans, Join from its statement
// (joinStatement).
type join struct {
	left, right       *TableScan
	leftKey, rightKey string
	bloom             JoinSpec // the Bloom filter's knobs; SQL is not read
	joinTail
}

// joinTail is what a statement's last join's joined rows meet as they
// decode: the rows the residual passes (nil: all) fold into fold (nil: none,
// they are the join's answer), each bound to the joined header (probeFor).
type joinTail struct {
	residual sqlparse.Expr
	fold     *groupFold
}

// Join runs js's statement with one Section-V algorithm: StrategyBaseline,
// StrategyFiltered or StrategyBloom. A statement of another shape, or another
// algorithm, is a KindBadRequest error saying why. Aggregates over the joined
// rows are the server's, unbilled, as the planner's tail is, folded into as
// the rows join.
func (e *Exec) Join(js JoinSpec, algorithm string) (*Relation, error) {
	run := map[string]func(join) (*Relation, int64, error){
		StrategyBaseline: e.baselineJoin, StrategyFiltered: e.filteredJoin, StrategyBloom: e.bloomJoin}[algorithm]
	j, items, err := e.db.joinStatement(js, algorithm)
	if err == nil && run == nil {
		err = forcedError(e.db, j.left.Table, algorithm, "not a join algorithm (baseline, filtered or bloom)")
	}
	if items != nil {
		j.fold = &groupFold{items: items}
	}
	var joined *Relation
	if err == nil {
		joined, _, err = run(j)
	}
	if err != nil || items == nil {
		return joined, err
	}
	return e.groupByLocal(nil, j.fold, nil, items)
}

// joinStatement checks js's statement and builds the join it describes, with
// the select list's aggregates over the joined rows (nil for SELECT *);
// algorithm names the refusal.
func (db *DB) joinStatement(js JoinSpec, algorithm string) (join, []sqlparse.SelectItem, error) {
	sel, err := db.handStatement(js.SQL, algorithm, 2, 0)
	if err != nil {
		return join{}, nil, err
	}
	refuse := func(why string) (join, []sqlparse.SelectItem, error) {
		return join{}, nil, forcedError(db, sel.Table, algorithm, why)
	}
	jn := sel.Joins[0]
	tables := []string{strings.ToLower(cmp.Or(sel.Alias, sel.Table)), strings.ToLower(cmp.Or(jn.Alias, jn.Table))}
	side := func(c *sqlparse.Column) int { return slices.Index(tables, strings.ToLower(c.Qualifier)) }
	for _, x := range append(sqlparse.ItemExprs(sel.Items), jn.Cond, sel.Where) {
		for _, c := range sqlparse.ColumnRefs(x) {
			if c.Qualifier == "" || side(c) < 0 {
				return refuse(fmt.Sprintf("column %s is not qualified by a table of the FROM clause", c))
			}
		}
	}
	lk, rk := eqColumns(jn.Cond)
	if lk != nil && side(lk) == 1 {
		lk, rk = rk, lk
	}
	if lk == nil || rk == nil || side(lk) != 0 || side(rk) != 1 {
		return refuse("the ON condition equates no column of one table with one of the other")
	}
	var filters [2][]sqlparse.Expr
	for _, c := range sqlparse.Conjuncts(sel.Where) {
		set := 0 // a bit per table c reads
		for _, col := range sqlparse.ColumnRefs(c) {
			set |= 1 << side(col)
		}
		if set != 1 && set != 2 {
			return refuse(fmt.Sprintf("WHERE conjunct %s does not read exactly one table", c))
		}
		filters[set/2] = append(filters[set/2], sqlparse.StripQualifiers(c))
	}
	project := []string{lk.Name} // the Bloom build side's
	var items []sqlparse.SelectItem
	for _, it := range sel.Items {
		switch {
		case isStar(it) && len(sel.Items) == 1:
			project = nil
		case isStar(it) || !sqlparse.ContainsAggregate(it.Expr):
			return refuse(fmt.Sprintf("the select list is * or aggregates, not %s", it.Expr))
		default:
			for _, c := range sqlparse.ColumnRefs(it.Expr) {
				if side(c) == 0 && !slices.ContainsFunc(project, func(p string) bool { return sqlparse.SameName(p, c.Name) }) {
					project = append(project, c.Name)
				}
			}
			items = append(items, sqlparse.SelectItem{Expr: sqlparse.StripQualifiers(it.Expr), Alias: it.Alias})
		}
	}
	if js.TargetFPR <= 0 {
		js.TargetFPR = 0.01
	}
	return join{left: db.joinScan(sel.Table, sqlparse.AndAll(filters[0]), project),
		right: db.joinScan(jn.Table, sqlparse.AndAll(filters[1]), nil), leftKey: lk.Name, rightKey: rk.Name, bloom: js}, items, nil
}

// eqColumns is a and b when e is a = b, each nil unless that side is a
// column.
func eqColumns(e sqlparse.Expr) (a, b *sqlparse.Column) {
	if eq, ok := e.(*sqlparse.Binary); ok && eq.Op == sqlparse.OpEq {
		a, _ = eq.L.(*sqlparse.Column)
		b, _ = eq.R.(*sqlparse.Column)
	}
	return a, b
}

// joinScan is the scan of table pushing the predicate filter (nil = none)
// and the projection project (nil = every column).
func (db *DB) joinScan(table string, filter sqlparse.Expr, project []string) *TableScan {
	return &TableScan{Table: table, Filter: filter, Project: project,
		req: db.request(table, scanSelect(columnItems(project), filter))}
}

// baselineJoin loads both tables in full with plain GETs, concurrently,
// keeping as they decode the rows each side's filter passes, typed in the
// columns that filter and the server read (TableScan.load): the probe
// side's rows decode once the build side has loaded, each kept row probing
// its hash table (buildThenProbe) and the joined rows meeting j's tail, so
// no relation of the probe side's rows is built. No S3 Select anywhere.
func (e *Exec) baselineJoin(j join) (*Relation, int64, error) {
	defer e.scope("baseline join").end(nil)
	stage := e.NextStage()
	left, right := j.left.load(), j.right.load()
	right.BuildKey, right.ProbeKey, right.Residual = j.leftKey, j.rightKey, j.residual
	probe := right.decoder()
	probe.fold = j.fold
	var joined *Relation
	// The server-side filter pass touches every decoded row; meter it in
	// the load phases so execution matches the planner's baseline
	// estimate (cloudsim.EstimateBaselineJoin).
	build, err := buildThenProbe(func() (*Relation, error) {
		return e.loadMetered("load "+left.Table, stage, left, 1, nil, left.decoder())
	}, func(built func() *Relation) (err error) {
		probe.build = built
		joined, err = e.loadMetered("load "+right.Table, stage, right, 1, nil, probe)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	e.joinStep(stage, int64(len(build.Rows))+probe.kept, probe.joined)
	return joined, probe.joined, nil
}

// buildThenProbe runs a hash join's two sides at once, build and probe,
// whose rows wait to decode until built returns build's relation: nil if
// it failed, whose error is the one reported (probe's errNoBuild comes
// after it in argument order). It answers build's relation.
func buildThenProbe(build func() (*Relation, error), probe func(built func() *Relation) error) (*Relation, error) {
	var rel *Relation
	done := make(chan struct{})
	err := concurrently(func() (err error) {
		defer close(done)
		rel, err = build()
		return err
	}, func() error {
		return probe(func() *Relation {
			<-done
			return rel
		})
	})
	return rel, err
}

// joinStep meters a hash join's row work on stage's "hash join" phase:
// rowsIn, a build row or a probe row each, which made joined rows.
func (e *Exec) joinStep(stage int, rowsIn, joined int64) {
	st := e.step("hash join", "hash join", stage, "")
	st.sp.SetInt("rows_in", rowsIn)
	st.sp.SetInt("joined", joined)
	st.AddServerRows(rowsIn)
	st.end(nil)
}

// load is the baseline load of sc: the rows its Filter passes, typed in
// the columns it and Project read (baselineCols); every column with no
// Project (a *).
func (sc *TableScan) load() Load {
	l := Load{Table: sc.Table, Where: sc.Filter}
	if sc.Project != nil {
		l.Cols = baselineCols(slices.Clip(sc.Project), sqlparse.ColumnRefs(sc.Filter))
	}
	return l
}

// filteredJoin pushes each side's selection (not projection) into S3
// Select and joins locally. Both scans run in parallel, like the paper's
// filtered join; the probe side's responses decode once the build side has
// loaded, each row probing its hash table (pushedJoin), so no relation of
// the probe side's rows is built.
func (e *Exec) filteredJoin(j join) (*Relation, int64, error) {
	stage := e.NextStage()
	req := func(sc *TableScan) selectengine.Request { return e.db.request(sc.Table, scanSelect(nil, sc.Filter)) }
	var joined *Relation
	var n int64
	_, err := buildThenProbe(func() (*Relation, error) {
		return e.selectMetered("filtered scan "+j.left.Table, stage, j.left.Table, req(j.left), 0)
	}, func(built func() *Relation) (err error) {
		joined, n, err = e.pushedJoin("filtered scan "+j.right.Table, stage, req(j.right), j, built)
		return err
	})
	return joined, n, err
}

// bloomJoin implements Section V-A2: load the build side with selection
// and projection pushed down, construct a Bloom filter over its join keys,
// then ship the filter to S3 as a predicate on the probe side, whose rows
// join the build side's as they decode (pushedJoin). When the filter cannot
// fit S3 Select's 256 KB expression limit even after FPR degradation, it
// falls back to a filtered join whose two scans are forced serial (the
// paper's "degraded Bloom join").
func (e *Exec) bloomJoin(j join) (*Relation, int64, error) {
	defer e.scope("bloom join").end(nil)
	// Phase 1: build side with pushdown; two units of row work per build
	// row: the hash table and the filter insert.
	left, err := e.selectMetered("bloom build "+j.left.Table, e.NextStage(), j.left.Table, j.left.req, 2)
	if err != nil {
		return nil, 0, err
	}
	req, stage2, err := e.bloomProbe(left, j)
	if err != nil {
		return nil, 0, err
	}
	return e.pushedJoin("bloom probe "+j.right.Table, stage2, req, j, func() *Relation { return left })
}

// pushedJoin runs req, a pushed scan of j.right's table, on a step named
// name on stage as the probe side of a hash join on j's keys: as each
// response decodes, its rows join the build side build waits for (nil: it
// failed, and the scan fails with errNoBuild; selectDecoded) and meet j's
// tail: it answers the rows the residual keeps, none with a fold, and the
// rows joined. The join's row work is metered on the probe scan's own stage,
// which it overlaps (joinStep), so attribution holds under concurrency.
func (e *Exec) pushedJoin(name string, stage int, req selectengine.Request, j join, build func() *Relation) (*Relation, int64, error) {
	st := e.step(name, name, stage, j.right.Table)
	d := &decoder{build: build, buildKey: j.leftKey, probeKey: j.rightKey, residual: j.residual, fold: j.fold}
	joined, err := e.selectDecoded(st, j.right.Table, req, d)
	st.end(err)
	if err == nil {
		e.joinStep(stage, int64(len(build().Rows))+d.decoded, d.joined)
	}
	return joined, d.joined, err
}

// BloomProbe builds a Bloom filter over left's key column and runs the probe
// statement — SELECT columns or * FROM table [WHERE ...] — with the filter
// pushed beside its WHERE clause, rightKey naming the probed column. It is
// the reusable second half of the Bloom join, used directly by multi-join
// queries (e.g. TPC-H Q17) whose build side is an intermediate relation.
// When the filter cannot fit the 256 KB expression limit even after FPR
// degradation, the probe degrades to the plain statement. The returned int
// is the stage the probe scan ran in, so callers can attribute follow-on work
// (the hash join) to the same stage.
func (e *Exec) BloomProbe(left *Relation, leftKey, probe, rightKey string, fpr float64, bitwise bool, seed int64) (*Relation, int, error) {
	right, err := e.db.probeStatement(probe)
	if err != nil {
		return nil, 0, err
	}
	req, stage, err := e.bloomProbe(left, join{right: right, leftKey: leftKey, rightKey: rightKey,
		bloom: JoinSpec{TargetFPR: fpr, Bitwise: bitwise, Seed: seed}})
	if err != nil {
		return nil, 0, err
	}
	rel, err := e.selectMetered("bloom probe "+right.Table, stage, right.Table, req, 0)
	return rel, stage, err
}

// probeStatement checks BloomProbe's statement and builds its scan.
func (db *DB) probeStatement(sql string) (*TableScan, error) {
	sel, err := db.handStatement(sql, StrategyBloom, 1, 0)
	if err != nil {
		return nil, err
	}
	var project []string
	for _, it := range sel.Items {
		if c, ok := it.Expr.(*sqlparse.Column); ok {
			project = append(project, c.Name)
		} else if !isStar(it) || len(sel.Items) > 1 {
			return nil, forcedError(db, sel.Table, StrategyBloom, "a probe statement selects * or columns")
		}
	}
	return db.joinScan(sel.Table, sqlparse.StripQualifiers(sel.Where), project), nil
}

// bloomProbe is the request of BloomProbe of left, the build side, into
// j.right (j.left is not read), and the stage it runs in.
func (e *Exec) bloomProbe(left *Relation, j join) (selectengine.Request, int, error) {
	li := left.ColIndex(j.leftKey)
	if li < 0 {
		return selectengine.Request{}, 0, fmt.Errorf("engine: bloom join key %q not in %v", j.leftKey, left.Cols)
	}
	keys := make([]int64, 0, len(left.Rows))
	for _, r := range left.Rows {
		if v := r[li]; !v.IsNull() {
			k, ok := v.IntNum()
			if !ok {
				return selectengine.Request{}, 0, fmt.Errorf("engine: %w, got %s (%v)", ErrNonIntegerJoinKey, v.Kind(), v)
			}
			keys = append(keys, k)
		}
	}

	rng := rand.New(rand.NewSource(j.bloom.Seed + 1))
	key := &sqlparse.Column{Name: j.rightKey}
	var predicate sqlparse.Expr
	if len(keys) > 0 {
		if j.bloom.Bitwise {
			f := bloom.New(len(keys), j.bloom.TargetFPR, rng)
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
			if degraded, ok := bloom.DegradeFPR(effKeys, j.bloom.TargetFPR, selectengine.MaxSQLBytes-1024); ok {
				if _, pred, _, fits := bloom.Fit(keys, degraded, key, selectengine.MaxSQLBytes-1024, rng); fits {
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
		where := sqlparse.AndAll([]sqlparse.Expr{j.right.Filter, predicate})
		probe = e.db.request(j.right.Table, scanSelect(columnItems(j.right.Project), where))
	}
	return probe, stage2, nil
}
