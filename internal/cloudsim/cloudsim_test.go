package cloudsim

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultPricingMatchesPaper(t *testing.T) {
	p := DefaultPricing()
	if p.ScanPerGB != 0.002 || p.ReturnPerGB != 0.0007 || p.RequestPer1000 != 0.0004 || p.ComputePerHour != 2.128 {
		t.Errorf("pricing drifted from Section II-B: %+v", p)
	}
	if p.TransferPerGB != 0 {
		t.Error("same-region transfer must be free")
	}
}

func TestPhaseBottleneckModel(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMetrics(cfg)
	p := m.phase("scan", 0, Profile{})
	// One select request scanning 300 MB, returning 1 MB: storage-bound.
	p.AddSelectRequest(SelectReq{ScanBytes: 300e6, ReturnedBytes: 1e6, Rows: 1e6,
		ExprNodes: 5, Cells: 16e6, DecompressBytes: 1e6})
	sec := m.RuntimeSeconds()
	wantScan := cfg.RequestRTTSec + 300e6/cfg.S3ScanBytesPerSec +
		16e6*cfg.S3CellSecPerCell + 1e6/cfg.S3DecompressBytesPerSec +
		1e6*5*cfg.S3NodeSecPerRow
	if math.Abs(sec-wantScan) > 1e-9 {
		t.Errorf("runtime = %v, want scan-bound %v", sec, wantScan)
	}
}

func TestServerBoundPhase(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMetrics(cfg)
	p := m.phase("load", 0, Profile{})
	// A GET returning 1 GB: server parse should dominate the transfer.
	p.AddGetRequest(1e9)
	sec := m.RuntimeSeconds()
	parse := 1e9 / cfg.BulkParseBytesPerSec
	if math.Abs(sec-(parse+cfg.RequestCPUSec)) > 1e-6 {
		t.Errorf("runtime = %v, want parse-bound ~%v", sec, parse)
	}
}

func TestStagesSumPhasesOverlap(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMetrics(cfg)
	// Two phases in stage 0 overlap: total is the max.
	a := m.phase("a", 0, Profile{})
	b := m.phase("b", 0, Profile{})
	a.AddServerSeconds(2)
	b.AddServerSeconds(5)
	c := m.phase("c", 1, Profile{})
	c.AddServerSeconds(3)
	if got := m.RuntimeSeconds(); math.Abs(got-8) > 1e-9 {
		t.Errorf("runtime = %v, want max(2,5)+3 = 8", got)
	}
}

func TestPhaseReuseByName(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	p1 := m.phase("x", 0, Profile{})
	p2 := m.phase("x", 0, Profile{})
	if p1 != p2 {
		t.Error("same name+stage must return the same phase")
	}
	if p3 := m.phase("x", 1, Profile{}); p3 == p1 {
		t.Error("different stage must be a different phase")
	}
}

func TestCostComponents(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMetrics(cfg)
	p := m.phase("scan", 0, Profile{})
	p.AddSelectRequest(SelectReq{ScanBytes: 1 << 30, ReturnedBytes: 1 << 29, Rows: 0, ExprNodes: 0}) // scan 1 GB, return 0.5 GB
	for i := 0; i < 999; i++ {
		p.AddGetRequest(0)
	}
	c := m.Cost(DefaultPricing())
	if math.Abs(c.ScanUSD-0.002) > 1e-12 {
		t.Errorf("scan cost = %v, want 0.002", c.ScanUSD)
	}
	if math.Abs(c.TransferUSD-0.00035) > 1e-12 {
		t.Errorf("transfer cost = %v, want 0.00035", c.TransferUSD)
	}
	if math.Abs(c.RequestUSD-0.0004) > 1e-12 { // 1000 requests total
		t.Errorf("request cost = %v, want 0.0004", c.RequestUSD)
	}
	if c.ComputeUSD <= 0 {
		t.Error("compute cost must be positive")
	}
	if math.Abs(c.Total()-(c.ComputeUSD+c.RequestUSD+c.ScanUSD+c.TransferUSD)) > 1e-15 {
		t.Error("Total() mismatch")
	}
	if !strings.Contains(c.String(), "compute") {
		t.Error("String() should mention components")
	}
}

func TestPlainGetTransferIsFree(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	m.phase("load", 0, Profile{}).AddGetRequest(10 << 30)
	c := m.Cost(DefaultPricing())
	if c.TransferUSD != 0 || c.ScanUSD != 0 {
		t.Errorf("plain GET should cost no scan/transfer: %+v", c)
	}
}

func TestComputationAwarePricing(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	m.phase("scan", 0, Profile{}).AddSelectRequest(SelectReq{ScanBytes: 1 << 30, ReturnedBytes: 0, Rows: 0, ExprNodes: 0})
	cap := DefaultComputationAwarePricing()
	light := m.CostComputationAware(cap, 0)
	heavy := m.CostComputationAware(cap, 1000)
	flat := m.Cost(cap.Pricing)
	if light.ScanUSD >= heavy.ScanUSD {
		t.Error("light scans must be cheaper than heavy scans")
	}
	if math.Abs(light.ScanUSD-flat.ScanUSD*cap.BaseFraction) > 1e-12 {
		t.Errorf("light scan = %v, want base fraction of %v", light.ScanUSD, flat.ScanUSD)
	}
	if math.Abs(heavy.ScanUSD-flat.ScanUSD) > 1e-12 {
		t.Error("saturated scan should pay full price")
	}
}

func TestPaperScaleAnchors(t *testing.T) {
	// Sanity anchors from Fig. 1a at 10 GB TPC-H scale: the model should
	// land in the right decade, and S3-side filter should be ~10x faster
	// than server-side filter.
	cfg := DefaultConfig()
	lineitem := int64(7.25 * 1e9)
	parts := int64(32)

	server := NewMetrics(cfg)
	p := server.phase("load", 0, Profile{})
	for i := int64(0); i < parts; i++ {
		p.AddGetRequest(lineitem / parts)
	}
	serverSec := server.RuntimeSeconds()

	s3side := NewMetrics(cfg)
	q := s3side.phase("scan", 0, Profile{})
	rowsPerPart := int64(60e6) / parts
	for i := int64(0); i < parts; i++ {
		// 16 columns per lineitem row: the CSV scan decodes them all.
		q.AddSelectRequest(SelectReq{ScanBytes: lineitem / parts, ReturnedBytes: 1000,
			Rows: rowsPerPart, ExprNodes: 8, Cells: rowsPerPart * 16})
	}
	s3Sec := s3side.RuntimeSeconds()

	if serverSec < 50 || serverSec > 110 {
		t.Errorf("server-side filter = %.1fs, expected ~72s (Fig 1a)", serverSec)
	}
	if s3Sec < 4 || s3Sec > 12 {
		t.Errorf("s3-side filter = %.1fs, expected ~8s (Fig 1a)", s3Sec)
	}
	ratio := serverSec / s3Sec
	if ratio < 6 || ratio > 16 {
		t.Errorf("speedup = %.1fx, paper reports ~10x", ratio)
	}
}

func TestConcurrentPhaseUpdates(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	p := m.phase("par", 0, Profile{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.AddSelectRequest(SelectReq{ScanBytes: 10, ReturnedBytes: 1, Rows: 1, ExprNodes: 1})
				p.AddGetRequest(5)
				p.AddServerRows(3)
			}
		}()
	}
	wg.Wait()
	requests, scan, selRet, get := m.Totals()
	if requests != 6400 || scan != 32000 || selRet != 3200 || get != 16000 {
		t.Errorf("totals = %d %d %d %d", requests, scan, selRet, get)
	}
}

func TestReport(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	m.phase("alpha", 1, Profile{}).AddGetRequest(100)
	m.phase("beta", 0, Profile{}).AddSelectRequest(SelectReq{ScanBytes: 100, ReturnedBytes: 10, Rows: 1, ExprNodes: 1})
	r := m.Report()
	if !strings.Contains(r, "alpha") || !strings.Contains(r, "beta") {
		t.Errorf("report missing phases:\n%s", r)
	}
	// beta (stage 0) should be listed before alpha (stage 1)
	if strings.Index(r, "beta") > strings.Index(r, "alpha") {
		t.Error("report should sort by stage")
	}
}

// Property: runtime is monotonic in added work.
func TestQuickRuntimeMonotonic(t *testing.T) {
	f := func(scans []uint32) bool {
		m := NewMetrics(DefaultConfig())
		p := m.phase("s", 0, Profile{})
		prev := 0.0
		for _, s := range scans {
			p.AddSelectRequest(SelectReq{ScanBytes: int64(s % 1e6), ReturnedBytes: int64(s % 1e3), Rows: int64(s % 1e4), ExprNodes: 3})
			now := m.RuntimeSeconds()
			if now+1e-12 < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cost components are non-negative and scale with bytes.
func TestQuickCostNonNegative(t *testing.T) {
	f := func(scan, ret uint32) bool {
		m := NewMetrics(DefaultConfig())
		m.phase("s", 0, Profile{}).AddSelectRequest(SelectReq{ScanBytes: int64(scan), ReturnedBytes: int64(ret)})
		c := m.Cost(DefaultPricing())
		return c.ComputeUSD >= 0 && c.ScanUSD >= 0 && c.TransferUSD >= 0 && c.RequestUSD >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedSelectRequestSplitsBilling(t *testing.T) {
	cfg := DefaultConfig()
	pricing := DefaultPricing()
	req := SelectReq{ScanBytes: 1 << 30, ReturnedBytes: 1 << 28, Rows: 1e6, ExprNodes: 3, Cells: 8e6}

	// n sharers each record the same pass with sharers=n: their summed
	// bill must equal one direct pass, and each pays exactly 1/n of the
	// storage components.
	direct := NewMetrics(cfg)
	direct.phase("scan", 0, Profile{}).AddSelectRequest(req)
	dc := direct.Cost(pricing)

	const n = 4
	var sumScan, sumReq, sumTransfer float64
	for i := 0; i < n; i++ {
		m := NewMetrics(cfg)
		m.phase("scan", 0, Profile{}).AddSharedSelectRequest(req, n, 500)
		c := m.Cost(pricing)
		if math.Abs(c.ScanUSD-dc.ScanUSD/n) > 1e-15 {
			t.Fatalf("sharer scan cost = %v, want %v", c.ScanUSD, dc.ScanUSD/n)
		}
		sumScan += c.ScanUSD
		sumReq += c.RequestUSD
		sumTransfer += c.TransferUSD
	}
	if math.Abs(sumScan-dc.ScanUSD) > 1e-12 ||
		math.Abs(sumReq-dc.RequestUSD) > 1e-12 ||
		math.Abs(sumTransfer-dc.TransferUSD) > 1e-12 {
		t.Fatalf("summed sharer bill (scan %v, req %v, transfer %v) != one direct pass (%v, %v, %v)",
			sumScan, sumReq, sumTransfer, dc.ScanUSD, dc.RequestUSD, dc.TransferUSD)
	}
}

func TestSharedSelectRequestTimeIsNotDivided(t *testing.T) {
	cfg := DefaultConfig()
	req := SelectReq{ScanBytes: 300e6, ReturnedBytes: 50e6, Rows: 1e6, ExprNodes: 5, Cells: 16e6}

	direct := NewMetrics(cfg)
	direct.phase("scan", 0, Profile{}).AddSelectRequest(req)

	shared := NewMetrics(cfg)
	shared.phase("scan", 0, Profile{}).AddSharedSelectRequest(req, 8, 0)

	// The storage stream and the response transfer happen in full for
	// every sharer: a shared pass saves dollars, not stream time.
	if d, s := direct.RuntimeSeconds(), shared.RuntimeSeconds(); s < d-1e-9 {
		t.Fatalf("shared runtime %v < direct %v; stream time must not be divided", s, d)
	}
}

func TestSharedSelectRequestLocalRowsPriced(t *testing.T) {
	cfg := DefaultConfig()
	without := NewMetrics(cfg)
	without.phase("scan", 0, Profile{}).AddSharedSelectRequest(SelectReq{}, 2, 0)
	with := NewMetrics(cfg)
	with.phase("scan", 0, Profile{}).AddSharedSelectRequest(SelectReq{}, 2, 5e9)
	if with.RuntimeSeconds() <= without.RuntimeSeconds() {
		t.Fatal("local re-filter rows must add server-side row work")
	}
}

func TestSharedSelectRequestSoloDelegates(t *testing.T) {
	cfg := DefaultConfig()
	a := NewMetrics(cfg)
	a.phase("scan", 0, Profile{}).AddSharedSelectRequest(SelectReq{ScanBytes: 1 << 20}, 1, 0)
	b := NewMetrics(cfg)
	b.phase("scan", 0, Profile{}).AddSelectRequest(SelectReq{ScanBytes: 1 << 20})
	if a.RuntimeSeconds() != b.RuntimeSeconds() {
		t.Fatal("sharers=1 must account exactly like a direct select")
	}
	ar, as, _, _ := a.SharedTotals()
	if ar != 0 || as != 0 {
		t.Fatal("sharers=1 must not record shared totals")
	}
	req, _, _, _ := a.Totals()
	if req != 1 {
		t.Fatalf("requests = %d, want 1", req)
	}
}

func TestSharedTotals(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	m.phase("scan", 0, Profile{}).AddSharedSelectRequest(SelectReq{ScanBytes: 1000, ReturnedBytes: 400}, 4, 0)
	m.phase("scan", 0, Profile{}).AddSharedSelectRequest(SelectReq{ScanBytes: 1000, ReturnedBytes: 400}, 4, 0)
	reqShare, scanShare, retShare, wire := m.SharedTotals()
	if math.Abs(reqShare-0.5) > 1e-12 || math.Abs(scanShare-500) > 1e-9 || math.Abs(retShare-200) > 1e-9 {
		t.Fatalf("SharedTotals = %v, %v, %v", reqShare, scanShare, retShare)
	}
	if wire != 800 {
		t.Fatalf("wire bytes = %d, want 800 (full response per pass)", wire)
	}
	// Shared fractional requests stay out of the integer request count.
	req, _, _, _ := m.Totals()
	if req != 0 {
		t.Fatalf("Totals requests = %d, want 0", req)
	}
}

// TestCatalogRequestIsScaleInvariant: a statistics object is as large at
// SF 10 as at SF 0.01, so its GET costs the same seconds and dollars at any
// Scale — where AddGetRequest would charge 340 KB as 340 MB — and is one
// request, its bytes and its parse in every total.
func TestCatalogRequestIsScaleInvariant(t *testing.T) {
	const n = 340_000
	cfg, pricing := DefaultConfig(), DefaultPricing()
	measure := func(scale Scale, profile Profile, catalog bool) (float64, CostBreakdown, *Metrics) {
		m := NewMetricsScaled(cfg, scale)
		p := m.phase("plan stats t", 0, profile)
		if catalog {
			p.AddCatalogRequest(n)
		} else {
			p.AddGetRequest(n)
		}
		billed := m.Cost(pricing)
		billed.ComputeUSD = 0
		if p.Seconds() != m.RuntimeSeconds() || p.BilledCost(pricing) != billed {
			t.Errorf("scale %+v: the phase's own view (%v s, %v) disagrees with the metrics' (%v s, %v)",
				scale, p.Seconds(), p.BilledCost(pricing), m.RuntimeSeconds(), billed)
		}
		return m.RuntimeSeconds(), m.Cost(pricing), m
	}
	for _, profile := range []Profile{{}, CrossRegionS3Profile()} {
		unitSec, unitUSD, m := measure(Unit(), profile, true)
		paperSec, paperUSD, _ := measure(Scale{DataRatio: 1000, PartRatio: 8}, profile, true)
		if unitSec != paperSec || unitUSD != paperUSD {
			t.Errorf("catalog request: %v s %v at unit scale, %v s %v at paper scale", unitSec, unitUSD, paperSec, paperUSD)
		}
		// At unit scale it is an ordinary GET of n bytes.
		getSec, getUSD, _ := measure(Unit(), profile, false)
		if math.Abs(unitSec-getSec) > 1e-12 || math.Abs(unitUSD.Total()-getUSD.Total()) > 1e-15 {
			t.Errorf("catalog request at unit scale: %v s $%v, a GET of the same bytes: %v s $%v", unitSec, unitUSD.Total(), getSec, getUSD.Total())
		}
		pc := cfg.ForProfile(profile)
		if want := math.Max(pc.RequestRTTSec+n/pc.NetworkBytesPerSec, n/pc.BulkParseBytesPerSec+pc.RequestCPUSec); math.Abs(unitSec-want) > 1e-12 {
			t.Errorf("catalog request took %v s, want max(stream, server) = %v", unitSec, want)
		}
		if req, _, _, get := m.Totals(); req != 1 || get != n || !strings.Contains(m.Report(), " 1 ") {
			t.Errorf("totals: %d requests, %d GET bytes; report:\n%s", req, get, m.Report())
		}
	}
	if sec, _, _ := measure(Scale{DataRatio: 1000, PartRatio: 8}, Profile{}, false); sec < 3 {
		t.Errorf("the scaled GET this replaces took %v s; the test's premise is gone", sec)
	}
}
