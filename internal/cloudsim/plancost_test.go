package cloudsim

import "testing"

// Stats shaped like a TPC-H customer ⋈ orders join at paper scale.
func planStats(filteredBuild int64) (build, probe PlanTableStats) {
	build = PlanTableStats{
		Bytes: 200 << 10, Rows: 1500, FilteredRows: filteredBuild,
		Cols: 8, Partitions: 4, FilterNodes: 3,
	}
	probe = PlanTableStats{
		Bytes: 2 << 20, Rows: 15000, FilteredRows: 15000,
		Cols: 9, Partitions: 4,
	}
	return
}

func paperScale() Scale { return Scale{DataRatio: 1000, PartRatio: 8} }

func TestEstimateJoinSelectiveBuildFavorsBloom(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	build, probe := planStats(15) // 1% of customers survive
	base := EstimateBaselineJoin(cfg, paperScale(), pricing, build, probe)
	bloom := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	if !bloom.Cheaper(base) {
		t.Errorf("selective build at scale: bloom %+v should beat baseline %+v", bloom, base)
	}
	if bloom.Seconds <= 0 || bloom.USD <= 0 || base.Seconds <= 0 {
		t.Errorf("estimates must be positive: bloom %+v baseline %+v", bloom, base)
	}
}

func TestEstimateJoinUnselectiveTinyFavorsBaseline(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	build, probe := planStats(1500) // no filter: everything survives
	base := EstimateBaselineJoin(cfg, Unit(), pricing, build, probe)
	bloom := EstimateBloomJoin(cfg, Unit(), pricing, build, probe, 1, 0.01)
	if !base.Cheaper(bloom) {
		t.Errorf("unselective at unit scale: baseline %+v should beat bloom %+v", base, bloom)
	}
}

func TestEstimateChainStepBloomWinsWhenIntermediateSmall(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	_, probe := planStats(0)
	small := EstimateBloomProbe(cfg, paperScale(), pricing, 20, probe, 20.0/15000, 0.01)
	scan := EstimateScanJoin(cfg, paperScale(), pricing, 20, probe)
	if !small.Cheaper(scan) {
		t.Errorf("tiny intermediate: bloom probe %+v should beat full scan %+v", small, scan)
	}
}

func TestPlanEstimateCheaperTieBreaks(t *testing.T) {
	a := PlanEstimate{Seconds: 1, USD: 2, Score: 3}
	b := PlanEstimate{Seconds: 2, USD: 2, Score: 3}
	if !a.Cheaper(b) || b.Cheaper(a) {
		t.Error("runtime should break score/USD ties")
	}
}

func TestSelectivityBounds(t *testing.T) {
	if s := (PlanTableStats{}).Selectivity(); s != 1 {
		t.Errorf("empty table selectivity = %v", s)
	}
	if s := (PlanTableStats{Rows: 100, FilteredRows: 25}).Selectivity(); s != 0.25 {
		t.Errorf("selectivity = %v", s)
	}
}

func TestNarrowProjectionCheapensPushdownEstimate(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	build, probe := planStats(15)
	wide := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	probe.ProjCols = 2 // of 9 columns
	narrow := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	if !narrow.Cheaper(wide) {
		t.Errorf("projected scan %+v should be cheaper than full-width %+v", narrow, wide)
	}
}

func TestBloomPredicateNodesMonotonic(t *testing.T) {
	if bloomPredicateNodes(0.0001) <= bloomPredicateNodes(0.1) {
		t.Error("tighter FPR means more hash functions, so more per-row work")
	}
	if bloomPredicateNodes(-1) <= 0 {
		t.Error("bad FPR should fall back to a positive default")
	}
}

// --- result-cache-aware estimates ---

func TestCachedFracMakesFilteredScanCheaper(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	_, probe := planStats(0)
	cold := EstimateScanJoin(cfg, paperScale(), pricing, 500, probe)
	probe.CachedFrac = 1
	warm := EstimateScanJoin(cfg, paperScale(), pricing, 500, probe)
	if !warm.Cheaper(cold) || warm.USD >= cold.USD || warm.Seconds >= cold.Seconds {
		t.Errorf("fully resident scan must be strictly cheaper: warm %+v vs cold %+v", warm, cold)
	}
	// Partial residency lands in between.
	probe.CachedFrac = 0.5
	half := EstimateScanJoin(cfg, paperScale(), pricing, 500, probe)
	if !half.Cheaper(cold) || !warm.Cheaper(half) {
		t.Errorf("partial residency must price between cold %+v and warm %+v: %+v", cold, warm, half)
	}
}

func TestCachedScanPaysNoRequestScanTransfer(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	_, probe := planStats(0)
	probe.Profile = CrossRegionS3Profile() // every billed component non-zero
	probe.CachedFrac = 1
	m := NewMetricsScaled(cfg, paperScale())
	ph := m.phase("scan", 0, probe.Profile)
	addScan(ph, probe, 1, 0, probe.CachedFrac)
	c := m.Cost(pricing)
	if c.RequestUSD != 0 || c.ScanUSD != 0 || c.TransferUSD != 0 {
		t.Errorf("cache hits billed storage components: %+v", c)
	}
	if hits, bytes := m.CacheTotals(); hits != int64(probe.Partitions) || bytes == 0 {
		t.Errorf("cache totals = %d hits / %d bytes, want %d hits", hits, bytes, probe.Partitions)
	}
	if m.RuntimeSeconds() <= 0 {
		t.Error("cached scans still take decode time on the virtual clock")
	}
}

func TestCachedFracFlipsChainStrategy(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	// A transfer-dominated probe on a metered cross-region link, with a
	// moderately selective intermediate: cold, the Bloom probe's smaller
	// return wins; with the plain scan resident, the filtered scan is free
	// of storage cost and must win.
	probe := PlanTableStats{
		Bytes: 4 << 20, Rows: 8000, FilteredRows: 8000,
		Cols: 3, Partitions: 4, ProjCols: 1,
		Profile: CrossRegionS3Profile(),
	}
	const buildRows, matchFrac = 4000, 0.5
	coldScan := EstimateScanJoin(cfg, paperScale(), pricing, buildRows, probe)
	bloom := EstimateBloomProbe(cfg, paperScale(), pricing, buildRows, probe, matchFrac, 0.01)
	if !bloom.Cheaper(coldScan) {
		t.Fatalf("cold: bloom %+v should beat filtered %+v (transfer-dominated setup)", bloom, coldScan)
	}
	probe.CachedFrac = 1
	warmScan := EstimateScanJoin(cfg, paperScale(), pricing, buildRows, probe)
	warmBloom := EstimateBloomProbe(cfg, paperScale(), pricing, buildRows, probe, matchFrac, 0.01)
	if !warmScan.Cheaper(warmBloom) {
		t.Errorf("warm: resident filtered scan %+v should beat bloom %+v (bloom probes are priced cold)",
			warmScan, warmBloom)
	}
}

func TestBloomBuildSideUsesCachedFrac(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	build, probe := planStats(15)
	cold := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	build.CachedFrac = 1
	warm := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	if warm.USD >= cold.USD {
		t.Errorf("resident build scan must lower the bloom estimate: warm %+v vs cold %+v", warm, cold)
	}
	// The probe side is priced cold even when marked resident (the pushed
	// bloom predicate is query-specific).
	probe.CachedFrac = 1
	same := EstimateBloomJoin(cfg, paperScale(), pricing, build, probe, build.Selectivity(), 0.01)
	if same.USD != warm.USD || same.Seconds != warm.Seconds {
		t.Errorf("probe CachedFrac leaked into the bloom probe estimate: %+v vs %+v", same, warm)
	}
}

// --- index-scan estimates ---

// lineitemStats is a TPC-H lineitem-shaped table (paper scale via
// paperScale): ~7 GB equivalent, 16 columns, uniformly scattered values in
// the indexed column.
func lineitemStats(matched int64) (PlanTableStats, IndexScanStats) {
	s := PlanTableStats{
		Bytes: 1500 << 10, Rows: 12000, FilteredRows: matched,
		Cols: 16, Partitions: 4, FilterNodes: 3,
		Profile: S3Profile(),
	}
	idx := IndexScanStats{
		IndexBytes:  360 << 10, // value + two offsets per row
		MatchedRows: matched,
		PredNodes:   3,
	}
	return s, idx
}

func TestIndexScanCrossesOverWithSelectivity(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	// 1% selectivity: the index resolves the predicate with a small scan
	// over the index objects and a handful of ranged fetches — strictly
	// cheaper than scanning the whole table through S3 Select.
	s, idx := lineitemStats(120)
	indexed := EstimateIndexScan(cfg, paperScale(), pricing, s, idx)
	filtered := EstimateFilteredScan(cfg, paperScale(), pricing, s)
	if indexed.USD >= filtered.USD || !indexed.Cheaper(filtered) {
		t.Errorf("1%% selectivity: index %+v should beat filtered scan %+v", indexed, filtered)
	}
	// 50% selectivity: millions of scattered ranges dominate; the filtered
	// scan must win strictly.
	s, idx = lineitemStats(6000)
	indexed = EstimateIndexScan(cfg, paperScale(), pricing, s, idx)
	filtered = EstimateFilteredScan(cfg, paperScale(), pricing, s)
	if filtered.USD >= indexed.USD || !filtered.Cheaper(indexed) {
		t.Errorf("50%% selectivity: filtered scan %+v should beat index %+v", filtered, indexed)
	}
}

func TestEstimateBaselineScanTransferDominated(t *testing.T) {
	cfg, pricing := DefaultConfig(), DefaultPricing()
	s, _ := lineitemStats(12000)
	base := EstimateBaselineScan(cfg, paperScale(), pricing, s)
	filtered := EstimateFilteredScan(cfg, paperScale(), pricing, s)
	if base.Seconds <= 0 || base.USD <= 0 {
		t.Fatalf("baseline estimate must be positive: %+v", base)
	}
	// With everything surviving the filter, both strategies move the whole
	// table; the baseline avoids the scan charge but parses in bulk.
	if base.USD >= filtered.USD+filtered.USD {
		t.Errorf("unselective baseline %+v wildly above filtered %+v", base, filtered)
	}
}

func TestExpectedCoalescedRanges(t *testing.T) {
	if n := ExpectedCoalescedRanges(0, 1000); n != 0 {
		t.Errorf("no matches should need no ranges, got %d", n)
	}
	if n := ExpectedCoalescedRanges(1000, 1000); n != 1 {
		t.Errorf("full selection coalesces to one range, got %d", n)
	}
	low := ExpectedCoalescedRanges(10, 100000)
	if low < 9 || low > 10 {
		t.Errorf("sparse matches barely coalesce: got %d for 10 matches", low)
	}
	half := ExpectedCoalescedRanges(50000, 100000)
	if half >= 50000 || half <= 0 {
		t.Errorf("half selection must coalesce meaningfully: got %d", half)
	}
}

func TestAddRangedGetRequestScalesWithRanges(t *testing.T) {
	cfg := DefaultConfig()
	few := NewMetricsScaled(cfg, paperScale())
	few.phase("fetch", 0, Profile{}).AddRangedGetRequest(1<<20, 10)
	many := NewMetricsScaled(cfg, paperScale())
	many.phase("fetch", 0, Profile{}).AddRangedGetRequest(1<<20, 10000)
	if many.RuntimeSeconds() <= few.RuntimeSeconds() {
		t.Errorf("more ranges in a batch must cost more time: %v vs %v",
			many.RuntimeSeconds(), few.RuntimeSeconds())
	}
	// The batch is one data-scaled request in the totals.
	req, _, _, getBytes := few.Totals()
	if req != 1 || getBytes != 1<<20 {
		t.Errorf("totals = %d requests / %d bytes, want 1 / %d", req, getBytes, 1<<20)
	}
}
