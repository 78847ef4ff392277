package cloudsim

import "math"

// Planner-facing cost estimation. The join planner (internal/engine)
// gathers per-table statistics with pushed-down COUNT(*) probes, then asks
// this file what each join strategy would cost. Estimates are produced by
// replaying the strategy's request pattern against a scratch Metrics under
// the same Config/Scale the query runs with, so the planner's model and
// the executor's accounting can never drift apart.

// PlanTableStats describes one join input for planning: the base table's
// size, how many rows survive its pushed-down filter, and the shape
// numbers the virtual clock needs (columns, partitions, filter complexity).
type PlanTableStats struct {
	Bytes        int64 // total object bytes across all partitions
	Rows         int64 // total rows
	FilteredRows int64 // rows passing the pushed filter (== Rows if none)
	Cols         int   // column count (cell-decode cost)
	Partitions   int
	FilterNodes  int64 // per-row expr AST nodes of the pushed scan SQL
	// ProjCols is how many columns the pushed scan returns (0 = all).
	// Returned-byte estimates shrink proportionally; scan and cell-decode
	// costs do not (CSV scans decode every cell regardless).
	ProjCols int
	// Columnar marks tables stored in the columnar (Parquet stand-in)
	// format, whose scans decode only the referenced columns. The
	// cell-decode term then scales with ProjCols instead of Cols, which is
	// exactly the advantage Fig. 11 measures — and it feeds strategy
	// choice, so a join that is Bloom-cheapest over CSV can price
	// filtered-scan-cheapest over the same table stored columnar.
	Columnar bool
	// Profile is the performance/pricing profile of the backend the table
	// lives on; the zero profile estimates at the base Config/Pricing.
	// This is what makes strategy choice backend-aware: the same join can
	// price baseline-cheapest on a fast free store and Bloom-cheapest on a
	// slow metered one.
	Profile Profile
	// CachedFrac is the fraction of the table's partitions whose *plain
	// pushed scan* (this query's selection + projection, no extra
	// predicates) is resident in the compute-tier result cache. Strategies
	// that push exactly that scan — the filtered scan and the Bloom build
	// side — price the resident partitions as cache hits (no request, no
	// scan, no transfer; decode only). Bloom *probe* scans embed a Bloom
	// predicate the cache can only hold if the identical query already ran,
	// so they are conservatively priced cold; plain-GET loads never touch
	// the select cache. This asymmetry is what lets an already-resident
	// probe side flip the planner from a Bloom probe to a filtered scan.
	CachedFrac float64
	// LocalRows is how many rows the access path hands the server-side tail,
	// which charges each one unit of row work on a stage of its own
	// (engine.finishTail); 0 prices no tail. Only the single-table estimates
	// (EstimateFilteredScan, EstimateBaselineScan, EstimateIndexScan) read it.
	LocalRows int64
}

// Selectivity is the fraction of rows passing the table's filter.
func (s PlanTableStats) Selectivity() float64 {
	if s.Rows <= 0 {
		return 1
	}
	return float64(s.FilteredRows) / float64(s.Rows)
}

func (s PlanTableStats) parts() int {
	if s.Partitions <= 0 {
		return 1
	}
	return s.Partitions
}

// projFrac approximates the byte share of the projected columns (uniform
// column widths assumed).
func (s PlanTableStats) projFrac() float64 {
	if s.ProjCols <= 0 || s.Cols <= 0 || s.ProjCols >= s.Cols {
		return 1
	}
	return float64(s.ProjCols) / float64(s.Cols)
}

// PlanEstimate is a strategy's predicted virtual runtime and total dollar
// cost, plus the score the planner ranks strategies by: the billed cost
// with the runtime valued once more at the compute rate. The USD figure
// already contains a compute-time component, so the score deliberately
// double-weights runtime — a slow query occupies the node and the user
// beyond what the bill shows (the trade-off the paper's follow-up work
// optimizes for).
type PlanEstimate struct {
	Seconds float64
	USD     float64
	Score   float64
}

// Cheaper reports whether e beats other on score, breaking ties on raw
// cost, then runtime.
func (e PlanEstimate) Cheaper(other PlanEstimate) bool {
	if e.Score != other.Score {
		return e.Score < other.Score
	}
	if e.USD != other.USD {
		return e.USD < other.USD
	}
	return e.Seconds < other.Seconds
}

// estimateWithTail replays the server-side tail of a single-table access
// path on the given (last) stage, then snapshots the estimate.
func estimateWithTail(m *Metrics, pricing Pricing, stage int, s PlanTableStats) PlanEstimate {
	if s.LocalRows > 0 {
		m.phase("local", stage, Profile{}).AddServerRows(s.LocalRows)
	}
	return estimate(m, pricing)
}

// estimate snapshots a scratch metrics replay into a PlanEstimate.
func estimate(m *Metrics, pricing Pricing) PlanEstimate {
	sec := m.RuntimeSeconds()
	usd := m.Cost(pricing).Total()
	return PlanEstimate{
		Seconds: sec,
		USD:     usd,
		Score:   usd + sec/3600*pricing.ComputePerHour,
	}
}

// EstimateBaselineJoin prices the paper's baseline join: both tables
// fetched in full with plain GETs (parallel, one stage), filters and the
// hash join evaluated on the server.
func EstimateBaselineJoin(cfg Config, scale Scale, pricing Pricing, build, probe PlanTableStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	load := func(name string, s PlanTableStats) {
		ph := m.phase(name, 0, s.Profile)
		per := s.Bytes / int64(s.parts())
		for i := 0; i < s.parts(); i++ {
			ph.AddGetRequest(per)
		}
		ph.AddServerRows(s.Rows) // local filter pass over every row
	}
	load("load build", build)
	load("load probe", probe)
	j := m.phase("hash join", 0, Profile{})
	j.AddServerRows(build.FilteredRows + probe.FilteredRows)
	return estimate(m, pricing)
}

// EstimateBloomJoin prices the paper's Bloom join: the build side scanned
// via S3 Select with selection+projection pushed down, then the probe side
// scanned with the Bloom predicate (plus its own filter) pushed down.
// matchFrac is the planner's estimate of the probe-row fraction whose join
// key lands in the Bloom filter (before false positives); fpr is the
// filter's target false-positive rate.
func EstimateBloomJoin(cfg Config, scale Scale, pricing Pricing, build, probe PlanTableStats, matchFrac, fpr float64) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)

	// Stage 0: build-side scan with pushdown (the table's plain scan, so a
	// resident result cache applies).
	bp := m.phase("bloom build", 0, build.Profile)
	addScan(bp, build, build.Selectivity(), build.FilterNodes, build.CachedFrac)
	bp.AddServerRows(build.FilteredRows * 2) // hash table + filter insert

	// Stage 1: probe-side scan with the Bloom predicate pushed down. The
	// predicate makes the pushed SQL query-specific, so it is priced cold
	// regardless of probe.CachedFrac.
	pp := m.phase("bloom probe", 1, probe.Profile)
	retFrac := probe.Selectivity() * math.Min(1, matchFrac+fpr)
	addScan(pp, probe, retFrac, probe.FilterNodes+bloomPredicateNodes(fpr), 0)

	// Local hash join over the surviving rows.
	j := m.phase("hash join", 1, Profile{})
	j.AddServerRows(build.FilteredRows + int64(retFrac*float64(probe.Rows)))
	return estimate(m, pricing)
}

// EstimateScanJoin prices joining an already-materialized intermediate
// relation (buildRows rows, on the server) against a base table scanned via
// S3 Select with only its own filter pushed down — the "filtered" step of a
// multi-join pipeline.
func EstimateScanJoin(cfg Config, scale Scale, pricing Pricing, buildRows int64, probe PlanTableStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	ph := m.phase("filtered scan", 0, probe.Profile)
	addScan(ph, probe, probe.Selectivity(), probe.FilterNodes, probe.CachedFrac)
	j := m.phase("hash join", 0, Profile{})
	j.AddServerRows(buildRows + probe.FilteredRows)
	return estimate(m, pricing)
}

// EstimateBloomProbe prices joining a materialized intermediate relation
// against a base table with a Bloom filter over the intermediate's keys
// pushed into the probe scan (engine.BloomProbe). matchFrac and fpr are as
// in EstimateBloomJoin.
func EstimateBloomProbe(cfg Config, scale Scale, pricing Pricing, buildRows int64, probe PlanTableStats, matchFrac, fpr float64) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	bp := m.phase("bloom build", 0, Profile{})
	bp.AddServerRows(buildRows) // filter insert over the intermediate
	pp := m.phase("bloom probe", 1, probe.Profile)
	retFrac := probe.Selectivity() * math.Min(1, matchFrac+fpr)
	// Bloom-predicate SQL is query-specific: priced cold (see CachedFrac).
	addScan(pp, probe, retFrac, probe.FilterNodes+bloomPredicateNodes(fpr), 0)
	j := m.phase("hash join", 1, Profile{})
	j.AddServerRows(buildRows + int64(retFrac*float64(probe.Rows)))
	return estimate(m, pricing)
}

// IndexScanStats describes a secondary index as a planning input: the
// index objects' total size, how many rows the indexable predicate keeps,
// the predicate's per-row expression work on the index scan, and the
// range-batching cap execution will use.
type IndexScanStats struct {
	// IndexBytes is the total size of the per-partition index objects.
	IndexBytes int64
	// MatchedRows is how many data rows the indexed predicate selects
	// (from the same pushed probe that fills PlanTableStats).
	MatchedRows int64
	// PredNodes is the per-row expression node count of the predicate
	// pushed to the index objects.
	PredNodes int64
	// MaxRangesPerGet caps how many coalesced ranges one multi-range GET
	// carries (0 = engine default of 256).
	MaxRangesPerGet int
}

func (x IndexScanStats) maxRanges() int {
	if x.MaxRangesPerGet <= 0 {
		return 256
	}
	return x.MaxRangesPerGet
}

// ExpectedCoalescedRanges estimates how many discontiguous byte ranges
// survive adjacent-row coalescing when matched of rows uniformly scattered
// rows are selected: the expected Bernoulli run count matched×(1−p).
// Clustered data coalesces better than this, so the estimate is
// conservative against the index strategy.
func ExpectedCoalescedRanges(matched, rows int64) int64 {
	if matched <= 0 {
		return 0
	}
	if rows <= 0 || matched >= rows {
		return 1
	}
	p := float64(matched) / float64(rows)
	est := int64(math.Ceil(float64(matched) * (1 - p)))
	if est < 1 {
		est = 1
	}
	return est
}

// EstimateIndexScan prices the paper's Section IV-A index strategy through
// the manifest-backed subsystem: push the indexable predicate to the
// per-partition index objects with S3 Select, coalesce the returned byte
// ranges, fetch them with batched multi-range GETs, and re-filter the
// candidate rows on the server. The replay mirrors the execution path's
// metering exactly (index select per partition, one header probe, one
// AddRangedGetRequest per batch, one local-filter pass over the fetched
// candidates).
func EstimateIndexScan(cfg Config, scale Scale, pricing Pricing, s PlanTableStats, idx IndexScanStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	addIndexScan(m, s, idx)
	return estimateWithTail(m, pricing, 2, s)
}

// EstimateIndexScanJoin prices joining an already-materialized intermediate
// relation (buildRows rows) against a base table accessed through its
// secondary index — the IndexScan alternative to EstimateScanJoin for the
// probe side of a chain join.
func EstimateIndexScanJoin(cfg Config, scale Scale, pricing Pricing, buildRows int64, s PlanTableStats, idx IndexScanStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	addIndexScan(m, s, idx)
	j := m.phase("hash join", 1, Profile{})
	j.AddServerRows(buildRows + s.FilteredRows)
	return estimate(m, pricing)
}

// addIndexScan replays the IndexScan request pattern into m (stages 0/1).
func addIndexScan(m *Metrics, s PlanTableStats, idx IndexScanStats) {
	parts := int64(s.parts())

	// Stage 0: predicate pushed to the index objects. The index rows are
	// value + two offsets, so three cells per data row; the returned bytes
	// are the offset pairs of the matched rows.
	ip := m.phase("index select", 0, s.Profile)
	idxRowBytes := int64(1)
	if s.Rows > 0 {
		idxRowBytes = max(int64(1), idx.IndexBytes/s.Rows)
	}
	perScan := idx.IndexBytes / parts
	perRows := s.Rows / parts
	perRet := idx.MatchedRows / parts * idxRowBytes
	for i := int64(0); i < parts; i++ {
		ip.AddSelectRequest(SelectReq{
			ScanBytes:     perScan,
			ReturnedBytes: perRet,
			Rows:          perRows,
			ExprNodes:     idx.PredNodes,
			Cells:         perRows * 3,
		})
	}
	ip.AddGetRequest(4096) // header probe on the data table

	// Stage 1: batched multi-range fetch of the matching data rows, then a
	// local pass re-applying the filter over the fetched candidates (gap
	// coalescing may pull in neighbouring rows).
	fp := m.phase("index fetch", 1, s.Profile)
	ranges := ExpectedCoalescedRanges(idx.MatchedRows, s.Rows)
	perPartRanges := (ranges + parts - 1) / parts
	fetchBytes := int64(float64(s.Bytes) * float64(idx.MatchedRows) / math.Max(1, float64(s.Rows)))
	if perPartRanges > 0 {
		batches := (perPartRanges + int64(idx.maxRanges()) - 1) / int64(idx.maxRanges())
		perBatchBytes := fetchBytes / parts / batches
		perBatchRanges := perPartRanges / batches
		for i := int64(0); i < parts; i++ {
			for b := int64(0); b < batches; b++ {
				fp.AddRangedGetRequest(perBatchBytes, perBatchRanges)
			}
		}
	}
	fp.AddServerRows(idx.MatchedRows)
}

// EstimateFilteredScan prices a table's pushed scan on its own: one S3 Select
// per partition returning FilteredRows rows in all, resident partitions
// served from the result cache, then the server-side tail. The access planner
// prices the plain scan and the scan with its tail pushed through it, each
// from the request it would really send.
func EstimateFilteredScan(cfg Config, scale Scale, pricing Pricing, s PlanTableStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	ph := m.phase("filtered scan", 0, s.Profile)
	addScan(ph, s, s.Selectivity(), s.FilterNodes, s.CachedFrac)
	return estimateWithTail(m, pricing, 1, s)
}

// EstimateBaselineScan prices the server-side baseline for one table: every
// partition fetched whole with plain GETs and the filter evaluated locally.
func EstimateBaselineScan(cfg Config, scale Scale, pricing Pricing, s PlanTableStats) PlanEstimate {
	m := NewMetricsScaled(cfg, scale)
	ph := m.phase("load", 0, s.Profile)
	per := s.Bytes / int64(s.parts())
	for i := 0; i < s.parts(); i++ {
		ph.AddGetRequest(per)
	}
	ph.AddServerRows(s.Rows)
	return estimateWithTail(m, pricing, 1, s)
}

// addScan records a full-table S3 Select scan over s returning retFrac of
// its rows (narrowed by the pushed projection), with nodes per-row
// expression work, one request per partition. cachedFrac of the partitions
// are priced as result-cache hits (decode only, nothing billed); callers
// pass s.CachedFrac when the strategy pushes the table's plain scan and 0
// when the pushed SQL differs from what the cache could hold.
func addScan(ph *Phase, s PlanTableStats, retFrac float64, nodes int64, cachedFrac float64) {
	parts := s.parts()
	cached := int(math.Round(cachedFrac * float64(parts)))
	if cached > parts {
		cached = parts
	}
	perBytes := s.Bytes / int64(parts)
	perRows := s.Rows / int64(parts)
	perRet := int64(retFrac * s.projFrac() * float64(s.Bytes) / float64(parts))
	// CSV scans decode every cell of every row; columnar scans decode only
	// the referenced columns (selectengine's CellsDecoded contract).
	decCols := max(s.Cols, 1)
	if s.Columnar && s.ProjCols > 0 && s.ProjCols < decCols {
		decCols = s.ProjCols
	}
	for i := 0; i < parts; i++ {
		if i < cached {
			ph.AddCacheHit(perRet)
			continue
		}
		ph.AddSelectRequest(SelectReq{
			ScanBytes:     perBytes,
			ReturnedBytes: perRet,
			Rows:          perRows,
			ExprNodes:     nodes,
			Cells:         perRows * int64(decCols),
		})
	}
}

// bloomPredicateNodes approximates the per-row expression work of the
// paper's '0'/'1'-string SUBSTRING Bloom predicate: one SUBSTRING + a few
// arithmetic nodes per hash function, with the optimal hash count
// k = log2(1/fpr).
func bloomPredicateNodes(fpr float64) int64 {
	if fpr <= 0 || fpr >= 1 {
		fpr = 0.01
	}
	k := math.Ceil(math.Log2(1 / fpr))
	const nodesPerHash = 12
	return int64(math.Max(1, k)) * nodesPerHash
}
