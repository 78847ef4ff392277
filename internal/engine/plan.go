package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// Cost-based join planning (the paper's Section V strategies behind a SQL
// front end). A multi-table SELECT is planned as a left-deep chain of hash
// joins: per-table selection and projection are pushed into S3 Select as
// usual, and for every join the planner consults the cloudsim cost model
// to choose between the baseline join (full GET loads, join on the server)
// and the Bloom join (build-side pushdown scan, Bloom predicate pushed
// into the probe-side scan). Cardinalities come from pushed-down COUNT(*)
// probes whose requests are accounted in the query's own metrics — the
// planner pays for its statistics like everything else — and are cached on
// the DB so repeated queries plan from table stats instead of re-probing.

// Join strategies the planner chooses among.
const (
	// StrategyBaseline loads both tables in full with plain GETs and
	// joins on the server (Section V-A baseline join).
	StrategyBaseline = "baseline"
	// StrategyBloom pushes the build side's scan and a Bloom filter over
	// its join keys into S3 Select (Section V-A2 Bloom join).
	StrategyBloom = "bloom"
	// StrategyFiltered scans the probe table with only its own filter
	// pushed down and joins against the materialized intermediate
	// relation (used for the later joins of a multi-join chain).
	StrategyFiltered = "filtered"
	// StrategyIndexScan resolves the table's indexable predicate against
	// its secondary-index objects and fetches only the matching byte
	// ranges with batched multi-range GETs (Section IV-A as an access
	// path). Available to single-table scans and as the probe side of
	// chain joins whenever a live index matches the pushed filter.
	StrategyIndexScan = "indexscan"
)

// planFPR is the Bloom filter target false-positive rate the planner uses
// (the paper's sweet spot, Fig. 4).
const planFPR = 0.01

// planSeed makes planned Bloom filters deterministic.
const planSeed = 1

// TableScan is one base-table leaf of a query plan: the S3 Select scan
// with the table's pushed-down selection and projection, plus the
// statistics the planner gathered for it.
type TableScan struct {
	Table string
	Alias string // optional alias from the FROM clause
	// Backend names the storage backend the table's partitions live on
	// (its profile is baked into Stats and prices this scan's strategies).
	Backend string
	Cols    []string
	// Filter is the conjunction of the query's single-table predicates
	// over this table, qualifier-stripped so it can be pushed to S3.
	Filter sqlparse.Expr
	// Project lists the columns the server reads from this table once the
	// scans return; a column only the table's own pushed Filter reads stays
	// in storage (nil = all, e.g. when the select list has a *).
	Project []string
	// Stats are the planner's cardinality and size statistics; StatsSource
	// is where they were made: StatsFromObject or StatsFromProbe (empty
	// when the scan was not priced).
	Stats       cloudsim.PlanTableStats
	StatsSource string
	// CachedStats reports whether Stats came from the DB's stats cache
	// (nothing was read or evaluated for this query).
	CachedStats bool
	// Index is the scan's secondary-index candidate: a live index on a
	// filtered column, with the indexable predicate and its matched-row
	// count (nil when the table has none).
	Index *IndexCandidate
	// Access is a single-table statement's access decision (planAccess);
	// nil for a join's scans and for a statement with none to make.
	Access *AccessPlan

	// req is the request a pushed scan of the table sends every partition —
	// a join scan's selection and projection, a single-table statement's
	// pushedScan — which pricing, execution and EXPLAIN all read.
	req selectengine.Request
}

// Name returns the scan's display name (alias if present).
func (sc *TableScan) Name() string {
	if sc.Alias != "" {
		return sc.Alias
	}
	return sc.Table
}

// JoinStep is one hash join of the plan, with the strategy the cost model
// chose and the per-strategy estimates that drove the decision.
type JoinStep struct {
	BuildName, ProbeName string // display names of the two sides
	BuildKey, ProbeKey   string // equi-join key column names
	Strategy             string
	Reason               string
	// Estimates maps each candidate strategy to its predicted virtual
	// runtime and dollar cost.
	Estimates map[string]cloudsim.PlanEstimate
	// EstRows is the planner's estimate of this join's output cardinality
	// (used to cost the next step of the chain).
	EstRows int64
	// RangedGets is the number of multi-range GET requests the IndexScan
	// strategy actually issued (filled in at execution).
	RangedGets int64

	// Actuals, filled in by runPlan as each step completes (EXPLAIN
	// ANALYZE renders them next to the estimates): the step's output
	// cardinality and its deltas of virtual runtime, billed dollars and
	// returned bytes.
	ActualRows  int64
	ActualSec   float64
	ActualUSD   float64
	ActualBytes int64

	first              bool // joins two base tables via the JoinSpec operators
	buildIdx, probeIdx int  // scan indices (first step)
	scan               int  // scan index of the table joined in (later steps)
}

// QueryPlan is the planned execution of a SELECT, the one value its
// execution, EXPLAIN and EXPLAIN ANALYZE read: a scan per FROM table and,
// for a join, the chain of Steps; a single-table statement has one scan,
// which carries its access decision, and no steps.
type QueryPlan struct {
	Sel      *sqlparse.Select
	Scans    []*TableScan
	Steps    []*JoinStep
	Residual sqlparse.Expr // conjuncts evaluated on the server after all joins

	exec *Exec // the execution that planned it (String reads residency and totals off it)
	ran  bool  // the plan has run and holds its actuals (String renders them)
	rows int64 // output rows, once ran
}

// resolve maps a column reference to the index of the scan that provides
// it. Qualified references match the scan's alias or table name;
// unqualified ones match the first scan whose header contains the column.
func (p *QueryPlan) resolve(c *sqlparse.Column) (int, error) {
	if c.Qualifier != "" {
		for i, sc := range p.Scans {
			if strings.EqualFold(c.Qualifier, sc.Alias) || strings.EqualFold(c.Qualifier, sc.Table) {
				if !sc.has(c.Name) {
					return -1, fmt.Errorf("engine: column %q is not in table %s %v", c.Name, sc.Table, sc.Cols)
				}
				return i, nil
			}
		}
		return -1, fmt.Errorf("engine: unknown table or alias %q", c.Qualifier)
	}
	for i, sc := range p.Scans {
		if sc.has(c.Name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("engine: column %q is not in any FROM table", c.Name)
}

// scansOf returns the distinct scan indices an expression references.
func (p *QueryPlan) scansOf(e sqlparse.Expr) ([]int, error) {
	seen := map[int]bool{}
	var out []int
	for _, c := range sqlparse.ColumnRefs(e) {
		i, err := p.resolve(c)
		if err != nil {
			return nil, err
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out, nil
}

// providerCount reports how many FROM tables have a column named name.
func (p *QueryPlan) providerCount(name string) int {
	n := 0
	for _, sc := range p.Scans {
		if sc.has(name) {
			n++
		}
	}
	return n
}

// has reports whether the scanned table has a column name denotes.
func (sc *TableScan) has(name string) bool { return sqlparse.NewNames(sc.Cols).Index(name) >= 0 }

// equiPred is one `a.x = b.y` conjunct between two different tables.
type equiPred struct {
	a, b   int // scan indices
	ak, bk string
	expr   sqlparse.Expr
	used   bool
}

// planJoins builds the cost-based plan for a multi-table select. Planning
// issues real (metered) requests: one GET of each table's statistics object
// per DB, or, for a table without a usable one, a header probe and, on
// stats-cache misses, one pushed-down COUNT(*) probe.
func (e *Exec) planJoins(sel *sqlparse.Select) (*QueryPlan, error) {
	p := &QueryPlan{Sel: sel}
	p.Scans = append(p.Scans, &TableScan{Table: sel.Table, Alias: sel.Alias})
	for _, j := range sel.Joins {
		p.Scans = append(p.Scans, &TableScan{Table: j.Table, Alias: j.Alias})
	}
	names := map[string]bool{}
	for _, sc := range p.Scans {
		k := strings.ToLower(sc.Name())
		if names[k] {
			return nil, fmt.Errorf("engine: duplicate table name or alias %q in FROM; give each table a distinct alias", sc.Name())
		}
		names[k] = true
	}

	// Shapes: one small GET per table — its statistics object, or failing
	// that its header — all in one stage.
	defer e.scope("plan").end(nil)
	shapeStage := e.NextStage()
	objs := make([]*statsObj, len(p.Scans))
	for i, sc := range p.Scans {
		var err error
		if objs[i], sc.Cols, err = e.tableShape(sc.Table, shapeStage); err != nil {
			return nil, err
		}
	}

	// Classify every WHERE / ON conjunct: single-table predicates push
	// down, two-table equalities become join keys, the rest runs locally
	// after the joins.
	var conjuncts []sqlparse.Expr
	conjuncts = append(conjuncts, sqlparse.Conjuncts(sel.Where)...)
	for _, j := range sel.Joins {
		conjuncts = append(conjuncts, sqlparse.Conjuncts(j.Cond)...)
	}
	filters := make([][]sqlparse.Expr, len(p.Scans))
	var equis []*equiPred
	var kept, residual []sqlparse.Expr // kept: every conjunct not pushed
	// pushedNames collects unqualified column references inside pushed
	// per-table filters; if such a name exists in several tables, the
	// first-table-wins resolution is a silent guess, so the ambiguity
	// check below must vet it like a post-join reference.
	var pushedNames []string
	for _, c := range conjuncts {
		scans, err := p.scansOf(c)
		if err != nil {
			return nil, err
		}
		if len(scans) == 1 {
			for _, ref := range sqlparse.ColumnRefs(c) {
				if ref.Qualifier == "" {
					pushedNames = append(pushedNames, ref.Name)
				}
			}
			filters[scans[0]] = append(filters[scans[0]], sqlparse.StripQualifiers(c))
			continue
		}
		kept = append(kept, c)
		if len(scans) == 2 {
			if b, ok := c.(*sqlparse.Binary); ok && b.Op == sqlparse.OpEq {
				lc, lok := b.L.(*sqlparse.Column)
				rc, rok := b.R.(*sqlparse.Column)
				if lok && rok {
					// Join keys resolve at planning time, so an
					// unqualified key present in several tables is a
					// silent guess — reject it outright (the equated
					// exemption cannot apply to the predicate that would
					// define the equating).
					for _, kc := range []*sqlparse.Column{lc, rc} {
						if kc.Qualifier == "" && p.providerCount(kc.Name) > 1 {
							return nil, fmt.Errorf("engine: join key %q is ambiguous (several FROM tables provide it); qualify it with a table name or alias", kc.Name)
						}
					}
					la, _ := p.resolve(lc)
					ra, _ := p.resolve(rc)
					equis = append(equis, &equiPred{a: la, b: ra, ak: lc.Name, bk: rc.Name, expr: c})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	for i, sc := range p.Scans {
		sc.Filter = sqlparse.AndAll(filters[i])
	}

	// Projection pushdown: each scan returns the columns the server reads
	// after the scans (join keys, residual, select list, GROUP BY, ORDER BY),
	// not those only its own pushed filter reads. A * keeps every column
	// everywhere; an ORDER BY reference that names no table column is left
	// for the sort to report.
	refs, _ := serverColumns(sel, kept, func(c *sqlparse.Column) bool { _, err := p.resolve(c); return err == nil })
	for _, c := range refs {
		i, err := p.resolve(c)
		if err != nil {
			return nil, err
		}
		p.Scans[i].Project = addColumn(p.Scans[i].Project, c.Name)
	}

	// Statistics (cached on the DB): the probe SQL over each table's sample,
	// or pushed down when the table has no statistics object, priced for the
	// scan execution will push.
	probeStage := e.NextStage()
	for i, sc := range p.Scans {
		sc.Index = e.db.indexCandidate(e.ctx, sc.Table, sc.Filter)
		sc.req = e.db.request(sc.Table, scanSelect(columnItems(sc.Project), sc.Filter))
		if err := e.scanStats(sc, objs[i], -1, probeStage); err != nil {
			return nil, err
		}
	}

	// Greedy left-deep join chain: each round joins in the connected table
	// with the smallest filtered cardinality, keeping intermediates small.
	joined := map[int]bool{0: true}
	prevRows := p.Scans[0].Stats.FilteredRows
	db := e.db
	// equated tracks which (table, column) pairs are made equal by a used
	// join predicate, so the ambiguity check can tell harmless duplicate
	// names (all copies provably equal) from dangerous ones.
	equated := newColEquiv()
	for len(joined) < len(p.Scans) {
		var eq *equiPred
		var joinedKey, newKey string
		newIdx := -1
		for _, q := range equis {
			if q.used {
				continue
			}
			var candIdx int
			var candJoinedKey, candNewKey string
			switch {
			case joined[q.a] && !joined[q.b]:
				candJoinedKey, candIdx, candNewKey = q.ak, q.b, q.bk
			case joined[q.b] && !joined[q.a]:
				candJoinedKey, candIdx, candNewKey = q.bk, q.a, q.ak
			default:
				continue
			}
			if eq == nil || p.Scans[candIdx].Stats.FilteredRows < p.Scans[newIdx].Stats.FilteredRows {
				eq, joinedKey, newIdx, newKey = q, candJoinedKey, candIdx, candNewKey
			}
		}
		if eq == nil {
			// An ambiguous unqualified reference may have mis-classified
			// the would-be join condition as a single-table filter; prefer
			// that diagnosis over a confusing cross-join error.
			if err := p.checkAmbiguousColumns(equated, pushedNames); err != nil {
				return nil, err
			}
			var missing []string
			for i, sc := range p.Scans {
				if !joined[i] {
					missing = append(missing, sc.Name())
				}
			}
			return nil, fmt.Errorf("engine: no equality predicate connects table(s) %s to the rest of the query (cross joins are not supported)",
				strings.Join(missing, ", "))
		}
		eq.used = true
		equated.union(colNode(eq.a, eq.ak), colNode(eq.b, eq.bk))
		newScan := p.Scans[newIdx]

		var step *JoinStep
		if len(joined) == 1 {
			// First join: two base tables (the joined set is still just
			// scan 0); the smaller filtered side builds, and the strategy
			// is BaselineJoin vs BloomJoin.
			const firstIdx = 0
			buildIdx, probeIdx := firstIdx, newIdx
			buildKey, probeKey := joinedKey, newKey
			if newScan.Stats.FilteredRows < p.Scans[firstIdx].Stats.FilteredRows {
				buildIdx, probeIdx = newIdx, firstIdx
				buildKey, probeKey = newKey, joinedKey
			}
			build, probe := p.Scans[buildIdx], p.Scans[probeIdx]
			matchFrac := build.Stats.Selectivity()
			// Output estimate, whichever side builds: the smaller table is
			// taken to hold the key, so each row of the larger matches one of
			// its rows, and both filters thin the larger table independently.
			keyRows := float64(max(min(build.Stats.Rows, probe.Stats.Rows), 1))
			ests := map[string]cloudsim.PlanEstimate{
				StrategyBaseline: cloudsim.EstimateBaselineJoin(db.Cfg, db.Sim, db.Pricing, build.Stats, probe.Stats),
				StrategyBloom:    cloudsim.EstimateBloomJoin(db.Cfg, db.Sim, db.Pricing, build.Stats, probe.Stats, matchFrac, planFPR),
			}
			strategy := StrategyBaseline
			if ests[StrategyBloom].Cheaper(ests[StrategyBaseline]) {
				strategy = StrategyBloom
			}
			step = &JoinStep{
				BuildName: build.Name(), ProbeName: probe.Name(),
				BuildKey: buildKey, ProbeKey: probeKey,
				Strategy: strategy, Estimates: ests,
				EstRows: int64(float64(build.Stats.FilteredRows) * float64(probe.Stats.FilteredRows) / keyRows),
				first:   true, buildIdx: buildIdx, probeIdx: probeIdx,
			}
			step.Reason = fmt.Sprintf(
				"build side %s keeps %d of %d rows (%.1f%%); %s estimated cheapest",
				build.Name(), build.Stats.FilteredRows, build.Stats.Rows,
				100*matchFrac, strategy)
		} else {
			// Later joins: the materialized intermediate builds; the
			// strategy is a plain filtered scan vs a Bloom probe vs — when
			// a live index matches the pushed filter — an IndexScan of the
			// probe side.
			matchFrac := 1.0
			if newScan.Stats.Rows > 0 && prevRows < newScan.Stats.Rows {
				matchFrac = float64(prevRows) / float64(newScan.Stats.Rows)
			}
			ests := map[string]cloudsim.PlanEstimate{
				StrategyFiltered: cloudsim.EstimateScanJoin(db.Cfg, db.Sim, db.Pricing, prevRows, newScan.Stats),
				StrategyBloom:    cloudsim.EstimateBloomProbe(db.Cfg, db.Sim, db.Pricing, prevRows, newScan.Stats, matchFrac, planFPR),
			}
			if newScan.Index != nil {
				ests[StrategyIndexScan] = cloudsim.EstimateIndexScanJoin(
					db.Cfg, db.Sim, db.Pricing, prevRows, newScan.Stats, indexScanStats(newScan.Index))
			}
			strategy := StrategyFiltered
			for _, s := range []string{StrategyBloom, StrategyIndexScan} {
				if est, ok := ests[s]; ok && est.Cheaper(ests[strategy]) {
					strategy = s
				}
			}
			step = &JoinStep{
				BuildName: "(intermediate)", ProbeName: newScan.Name(),
				BuildKey: joinedKey, ProbeKey: newKey,
				Strategy: strategy, Estimates: ests,
				EstRows: int64(float64(newScan.Stats.FilteredRows) * matchFrac),
				scan:    newIdx,
			}
			step.Reason = fmt.Sprintf(
				"intermediate has ~%d rows vs %d filtered %s rows; %s estimated cheapest",
				prevRows, newScan.Stats.FilteredRows, newScan.Name(), strategy)
			if strategy == StrategyIndexScan {
				step.Reason += fmt.Sprintf(" (index on %s, ~%d matching rows)",
					newScan.Index.Entry.Column, newScan.Index.MatchedRows)
			}
		}
		p.Steps = append(p.Steps, step)
		prevRows = step.EstRows
		joined[newIdx] = true
	}

	// Equality predicates between already-joined tables (e.g. a second
	// equi-condition over the same pair) are applied locally.
	for _, q := range equis {
		if !q.used {
			residual = append(residual, q.expr)
		}
	}
	p.Residual = sqlparse.AndAll(residual)

	if err := p.checkAmbiguousColumns(equated, pushedNames); err != nil {
		return nil, err
	}
	return p, nil
}

// colEquiv is a union-find over (scan, column) nodes: two nodes in one
// class are provably equal in every join-result row because a chain of
// used equi-join predicates connects them.
type colEquiv struct{ parent map[string]string }

func newColEquiv() *colEquiv { return &colEquiv{parent: map[string]string{}} }

func colNode(scan int, name string) string {
	return fmt.Sprintf("%d:%s", scan, sqlparse.NameKey(name))
}

func (u *colEquiv) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *colEquiv) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// checkAmbiguousColumns rejects queries that resolve a column name
// provided by more than one joined table: the join result concatenates
// bare column names (qualifiers are not preserved), so such a reference —
// or a later-step join key looked up on the intermediate relation — would
// silently bind to whichever copy comes first. The exemption: when every
// table's copy of the name is connected by used equi-join predicates, all
// copies are equal and any binding is correct. Providers are judged on
// full table headers, not pushed projections, because the baseline join
// (including runtime fallbacks to it) materializes every column.
func (p *QueryPlan) checkAmbiguousColumns(equated *colEquiv, pushedNames []string) error {
	names := append([]string{}, pushedNames...)
	add := func(n string) { names = append(names, n) }
	for _, it := range p.Sel.Items {
		if _, ok := it.Expr.(*sqlparse.Star); ok {
			continue // * prints every copy; no name resolution happens
		}
		for _, c := range sqlparse.ColumnRefs(it.Expr) {
			add(c.Name)
		}
	}
	for _, g := range p.Sel.GroupBy {
		for _, c := range sqlparse.ColumnRefs(g) {
			add(c.Name)
		}
	}
	for _, o := range p.Sel.OrderBy {
		for _, c := range sqlparse.ColumnRefs(o.Expr) {
			if _, err := p.resolve(c); err == nil { // aliases are fine
				add(c.Name)
			}
		}
	}
	if p.Residual != nil {
		for _, c := range sqlparse.ColumnRefs(p.Residual) {
			add(c.Name)
		}
	}
	// Later-step build keys are looked up by bare name on the materialized
	// intermediate, so they resolve post-join exactly like query exprs.
	for _, st := range p.Steps {
		if !st.first {
			add(st.BuildKey)
		}
	}
	checked := map[string]bool{}
	for _, n := range names {
		k := sqlparse.NameKey(n)
		if checked[k] {
			continue
		}
		checked[k] = true
		var provs []int
		for i, sc := range p.Scans {
			if sc.has(n) {
				provs = append(provs, i)
			}
		}
		if len(provs) < 2 {
			continue
		}
		root := equated.find(colNode(provs[0], n))
		for _, i := range provs[1:] {
			if equated.find(colNode(i, n)) != root {
				return fmt.Errorf("engine: column %q is ambiguous after the join (several FROM tables provide it and qualifiers are not preserved in the join result); join on it or give the tables distinct column names", n)
			}
		}
	}
	return nil
}

// cachedStats is the DB stats-cache entry: the raw probe output plus the
// row count matching the scan's indexable predicate (0-probe fields like
// FilterNodes, ProjCols, Profile and CachedFrac are recomputed per plan —
// they depend on the query's projection, the backend's current
// self-description and the result cache's contents, not on the probe).
type cachedStats struct {
	stats      cloudsim.PlanTableStats
	idxMatched int64
	source     string // StatsFromObject or StatsFromProbe
}

// scanStats is the one place a scan's planner statistics are made: the
// counts from probeStats for sc.Filter (sc.Index's matched rows included)
// or, when the caller has read the filtered rows off the statistics sample
// already (filtered >= 0), the object's exact shape with that count; then the
// table's column count and its backend's profile, so every strategy
// estimate prices the scan at that backend's bandwidth, latency and rates;
// and, from sc.req, the per-row expression work, returned columns and
// result-cache residency.
func (e *Exec) scanStats(sc *TableScan, ts *statsObj, filtered int64, stage int) error {
	s := e.db.store(sc.Table)
	sc.Backend = s.Name()
	var st cloudsim.PlanTableStats
	if filtered < 0 {
		var idxPred sqlparse.Expr
		if sc.Index != nil {
			idxPred = sc.Index.Pred
		}
		cs, cached, err := e.probeStats(ts, sc.Table, sc.Filter, idxPred, stage)
		if err != nil {
			return err
		}
		st, sc.StatsSource, sc.CachedStats = cs.stats, cs.source, cached
		if sc.Index != nil {
			sc.Index.MatchedRows = cs.idxMatched
		}
	} else {
		st, sc.StatsSource = ts.tableStats(), StatsFromObject
		st.FilteredRows = filtered
	}
	st.Cols = len(sc.Cols)
	st.Profile = s.Profile()
	sc.Stats = e.requestStats(st, sc.Table, sc.req)
	return nil
}

// requestStats is st priced for one pushed request to table: the per-row
// expression work of the statement it carries, which the select engine
// meters at run time, the columns it returns and how much of it the result
// cache holds.
func (e *Exec) requestStats(st cloudsim.PlanTableStats, table string, req selectengine.Request) cloudsim.PlanTableStats {
	stmt, _ := req.Statement() // built by the engine: carried, never parsed
	st.FilterNodes, st.ProjCols = selectengine.CountNodes(stmt), returnedCols(stmt, st.Cols)
	st.CachedFrac = e.cachedScanFrac(table, req)
	return st
}

// runPlan executes a planned select and records its actuals for EXPLAIN
// ANALYZE.
func (e *Exec) runPlan(p *QueryPlan) (rel *Relation, err error) {
	if len(p.Steps) == 0 {
		rel, err = e.runSelect(p.Sel, p.Scans[0])
	} else {
		rel, err = e.runJoins(p)
	}
	if err == nil {
		p.ran, p.rows = true, int64(len(rel.Rows))
	}
	return rel, err
}

// runJoins executes a planned multi-table select, recording each step's
// actual cardinality and cost deltas.
func (e *Exec) runJoins(p *QueryPlan) (*Relation, error) {
	var cur *Relation
	var err error
	for i, st := range p.Steps {
		t0 := e.Metrics.RuntimeSeconds()
		c0 := e.Cost().Total()
		_, _, ret0, get0 := e.Metrics.Totals()
		sc := e.scope(fmt.Sprintf("join %d", i+1))
		sc.sp.SetStr("strategy", st.Strategy)
		if st.first {
			cur, err = e.runFirstJoin(p, st)
		} else {
			cur, err = e.runChainJoin(p, st, cur)
		}
		if err != nil {
			sc.end(err)
			return nil, err
		}
		st.ActualRows = int64(len(cur.Rows))
		st.ActualSec = e.Metrics.RuntimeSeconds() - t0
		st.ActualUSD = e.Cost().Total() - c0
		_, _, ret1, get1 := e.Metrics.Totals()
		st.ActualBytes = (ret1 + get1) - (ret0 + get0)
		sc.sp.SetInt("rows", st.ActualRows)
		sc.sp.SetFloat("actual_sec", st.ActualSec)
		sc.sp.SetFloat("actual_usd", st.ActualUSD)
		sc.end(nil)
	}
	if p.Residual != nil {
		cur, err = e.filterLocal(cur, p.Residual)
		if err != nil {
			return nil, err
		}
	}
	return e.finishLocal(cur, p.Sel)
}

// runFirstJoin executes the first step (two base tables) with the chosen
// join operator over the planned scans. A Bloom plan over non-integer keys
// falls back to the baseline join at run time (the probe cannot be built).
func (e *Exec) runFirstJoin(p *QueryPlan, st *JoinStep) (*Relation, error) {
	j := join{left: p.Scans[st.buildIdx], right: p.Scans[st.probeIdx],
		leftKey: st.BuildKey, rightKey: st.ProbeKey, fpr: planFPR, seed: planSeed}
	if st.Strategy == StrategyBloom {
		rel, err := e.bloomJoin(j)
		if err == nil || !errors.Is(err, ErrNonIntegerJoinKey) {
			return rel, err
		}
		st.Strategy = StrategyBaseline
		st.Reason += "; fell back to baseline: Bloom filters need integer join keys"
	}
	return e.baselineJoin(j)
}

// runChainJoin joins the materialized intermediate relation with the
// step's base table.
func (e *Exec) runChainJoin(p *QueryPlan, st *JoinStep, cur *Relation) (*Relation, error) {
	sc := p.Scans[st.scan]
	var right *Relation
	var joinStage int
	var err error
	if st.Strategy == StrategyIndexScan {
		// Probe side through the secondary index: fetch the candidate byte
		// ranges, re-apply the full pushed filter locally, project to what
		// the query needs.
		var items []sqlparse.SelectItem
		if len(sc.Project) > 0 {
			items = columnItems(sc.Project)
		}
		right, st.RangedGets, joinStage, err = e.indexScan(sc.Table, sc.Index, sc.Filter, items)
		if err != nil {
			return nil, err
		}
	}
	if st.Strategy == StrategyBloom {
		// Building the Bloom filter walks every intermediate row; meter
		// it to match cloudsim.EstimateBloomProbe's build charge.
		build := e.step("bloom build intermediate", "bloom build intermediate", e.NextStage(), "")
		build.sp.SetInt("rows_in", int64(len(cur.Rows)))
		build.AddServerRows(int64(len(cur.Rows)))
		build.end(nil)
		right, joinStage, err = e.bloomProbe(cur, join{right: sc,
			leftKey: st.BuildKey, rightKey: st.ProbeKey, fpr: planFPR, seed: planSeed})
		if err != nil && errors.Is(err, ErrNonIntegerJoinKey) {
			st.Strategy = StrategyFiltered
			st.Reason += "; fell back to filtered: Bloom filters need integer join keys"
			err = nil
			right = nil
		} else if err != nil {
			return nil, err
		}
	}
	if right == nil {
		joinStage = e.NextStage()
		right, err = e.selectMetered("filtered scan "+sc.Table, joinStage, sc.Table, sc.req, 0)
		if err != nil {
			return nil, err
		}
	}
	// The hash join overlaps the scan that produced its probe side; using
	// that scan's own stage keeps attribution correct under concurrency.
	return e.hashJoinLocal(joinStage, cur, right, st.BuildKey, st.ProbeKey)
}

// statsNote renders a scan's filtered cardinality and where it came from,
// for EXPLAIN: a count scaled from a sample (see sampleCounts) carries a ~.
func statsNote(st cloudsim.PlanTableStats, source string, cached bool) string {
	note := fmt.Sprintf("%d after filter, from %s", st.FilteredRows, source)
	if source == StatsFromObject && st.Rows > statsSampleRows && st.FilteredRows != st.Rows {
		note = "~" + note
	}
	if cached {
		note += ", cached stats"
	}
	return note
}

// writeEstimates lists the candidate strategies' predicted runtime and
// cost in strategy-name order, names padded to width.
func writeEstimates(b *strings.Builder, indent string, width int, ests map[string]cloudsim.PlanEstimate) {
	names := make([]string, 0, len(ests))
	for name := range ests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%sest %-*s %8.3fs  $%.6f\n", indent, width, name+":", ests[name].Seconds, ests[name].USD)
	}
}

// String renders the plan as a readable tree (EXPLAIN): a single-table
// statement as its access decision and how it executes (writeScan), a join
// as its scans and steps. Once the steps have run (EXPLAIN ANALYZE), each
// join step carries its actuals: output rows next to the estimate, and the
// step's measured virtual seconds, dollars and returned bytes next to the
// per-strategy estimates that drove the decision.
func (p *QueryPlan) String() string {
	var b strings.Builder
	if len(p.Steps) == 0 {
		p.writeScan(&b)
		return b.String()
	}
	fmt.Fprintf(&b, "join plan (%d tables)\n", len(p.Scans))
	for _, sc := range p.Scans {
		fmt.Fprintf(&b, "  scan %s: S3 Select: %s", sc.Name(), sc.req.SQL)
		if p.ran {
			fmt.Fprintf(&b, "  [est %d rows, %s]\n",
				sc.Stats.Rows, statsNote(sc.Stats, sc.StatsSource, sc.CachedStats))
			continue
		}
		cached := ""
		if sc.Stats.CachedFrac > 0 {
			cached = fmt.Sprintf(", cached scan %.0f%%", 100*sc.Stats.CachedFrac)
		}
		backend := ""
		if sc.Backend != "" {
			backend = ", on " + sc.Backend
		}
		fmt.Fprintf(&b, "  [%d rows, %s%s%s]\n",
			sc.Stats.Rows, statsNote(sc.Stats, sc.StatsSource, sc.CachedStats), cached, backend)
		if sc.Index != nil {
			fmt.Fprintf(&b, "    index on %s: ~%d rows match %s\n",
				sc.Index.Entry.Column, sc.Index.MatchedRows, sc.Index.Pred.String())
		}
	}
	for i, st := range p.Steps {
		fmt.Fprintf(&b, "  join %d: %s.%s = %s.%s", i+1, st.BuildName, st.BuildKey, st.ProbeName, st.ProbeKey)
		if !p.ran {
			fmt.Fprintf(&b, "  (~%d rows)", st.EstRows)
		}
		fmt.Fprintf(&b, "\n    strategy: %s — %s\n", st.Strategy, st.Reason)
		if p.ran {
			fmt.Fprintf(&b, "    rows:   est ~%d, actual %d\n    cost:   ", st.EstRows, st.ActualRows)
			if est, ok := st.Estimates[st.Strategy]; ok {
				fmt.Fprintf(&b, "est %.3fs $%.6f, ", est.Seconds, est.USD)
			}
			fmt.Fprintf(&b, "actual %.3fs $%.6f\n    bytes:  actual %d returned\n", st.ActualSec, st.ActualUSD, st.ActualBytes)
		}
		writeEstimates(&b, "    ", 8, st.Estimates)
	}
	if p.Residual != nil {
		fmt.Fprintf(&b, "  server: filter %s\n", p.Residual.String())
	}
	writeLocalTail(&b, "  ", p.Sel)
	return b.String()
}
