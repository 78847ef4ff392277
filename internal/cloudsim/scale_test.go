package cloudsim

import (
	"math"
	"testing"
)

func TestUnitScaleIsIdentity(t *testing.T) {
	s := Unit()
	if s.DataRatio != 1 || s.PartRatio != 1 {
		t.Fatalf("unit scale = %+v", s)
	}
	if got := (Scale{}).normalized(); got.DataRatio != 1 || got.PartRatio != 1 {
		t.Errorf("zero scale must normalize to unit: %+v", got)
	}
}

// The core scaling invariant: a run over 1/R of the data on 1/P of the
// partitions, scaled by {R, P}, reports the same time and cost as the
// full-size run at unit scale.
func TestScaleEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	const (
		fullBytes = int64(8e9)
		fullRows  = int64(60e6)
		fullParts = 32
		dataRatio = 1000.0
		partRatio = 8.0 // 4 partitions instead of 32
	)

	full := NewMetrics(cfg)
	fp := full.phase("scan", 0, Profile{})
	for i := 0; i < fullParts; i++ {
		fp.AddSelectRequest(SelectReq{
			ScanBytes: fullBytes / fullParts, ReturnedBytes: 4e6,
			Rows: fullRows / fullParts, ExprNodes: 10, Cells: fullRows / fullParts * 16,
		})
	}
	fp.AddServerRows(1e6)

	small := NewMetricsScaled(cfg, Scale{DataRatio: dataRatio, PartRatio: partRatio})
	sp := small.phase("scan", 0, Profile{})
	smallParts := fullParts / int(partRatio)
	smallBytes := int64(float64(fullBytes) / dataRatio)
	smallRows := int64(float64(fullRows) / dataRatio)
	for i := 0; i < smallParts; i++ {
		// Each small partition stands for partRatio paper partitions, so
		// it carries partRatio x the per-paper-partition returned bytes
		// (divided by the data ratio).
		sp.AddSelectRequest(SelectReq{
			ScanBytes: smallBytes / int64(smallParts), ReturnedBytes: int64(4e6 * partRatio / dataRatio),
			Rows: smallRows / int64(smallParts), ExprNodes: 10,
			Cells: smallRows / int64(smallParts) * 16,
		})
	}
	sp.AddServerRows(int64(1e6 / dataRatio))

	ft, st := full.RuntimeSeconds(), small.RuntimeSeconds()
	if math.Abs(ft-st)/ft > 0.02 {
		t.Errorf("scaled runtime %.3fs differs from full-size %.3fs", st, ft)
	}
	fc, sc := full.Cost(DefaultPricing()), small.Cost(DefaultPricing())
	if math.Abs(fc.ScanUSD-sc.ScanUSD)/fc.ScanUSD > 0.02 {
		t.Errorf("scaled scan cost %v differs from full-size %v", sc.ScanUSD, fc.ScanUSD)
	}
	if math.Abs(fc.TransferUSD-sc.TransferUSD)/fc.TransferUSD > 0.02 {
		t.Errorf("scaled transfer cost %v differs from full-size %v", sc.TransferUSD, fc.TransferUSD)
	}
}

func TestRowFetchScalesWithData(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMetricsScaled(cfg, Scale{DataRatio: 1000, PartRatio: 8})
	p := m.phase("fetch", 0, Profile{})
	for i := 0; i < 10; i++ {
		p.AddRowFetchRequest(100)
	}
	// 10 actual fetches stand for 10k paper-scale fetches.
	c := m.Cost(DefaultPricing())
	wantReq := 10.0 * 1000 / 1000 * 0.0004
	if math.Abs(c.RequestUSD-wantReq) > 1e-12 {
		t.Errorf("request cost = %v, want %v", c.RequestUSD, wantReq)
	}
	// CPU term: 10 * 1000 * 0.5ms = 5s.
	if sec := m.RuntimeSeconds(); math.Abs(sec-10*1000*cfg.RequestCPUSec) > 0.02*sec {
		t.Errorf("runtime = %v", sec)
	}
}

func TestBulkRequestsScaleWithPartitions(t *testing.T) {
	m := NewMetricsScaled(DefaultConfig(), Scale{DataRatio: 1000, PartRatio: 8})
	m.phase("scan", 0, Profile{}).AddGetRequest(10)
	c := m.Cost(DefaultPricing())
	// 1 actual bulk request stands for 8 paper-scale partition requests.
	want := 8.0 / 1000 * 0.0004
	if math.Abs(c.RequestUSD-want) > 1e-15 {
		t.Errorf("request cost = %v, want %v", c.RequestUSD, want)
	}
}

func TestPhaseSecondsPrefix(t *testing.T) {
	m := NewMetrics(DefaultConfig())
	m.phase("sample lineitem", 0, Profile{}).AddServerSeconds(2)
	m.phase("sample orders", 1, Profile{}).AddServerSeconds(3)
	m.phase("threshold scan", 2, Profile{}).AddServerSeconds(5)
	if got := m.PhaseSeconds("sample"); math.Abs(got-5) > 1e-9 {
		t.Errorf("PhaseSeconds(sample) = %v, want 5", got)
	}
	if got := m.PhaseSeconds("threshold"); math.Abs(got-5) > 1e-9 {
		t.Errorf("PhaseSeconds(threshold) = %v, want 5", got)
	}
	if got := m.PhaseSeconds("nope"); got != 0 {
		t.Errorf("PhaseSeconds(nope) = %v", got)
	}
}

func TestPhaseReturnedBytesScaled(t *testing.T) {
	m := NewMetricsScaled(DefaultConfig(), Scale{DataRatio: 100, PartRatio: 1})
	m.phase("scan a", 0, Profile{}).AddSelectRequest(SelectReq{ScanBytes: 10, ReturnedBytes: 7})
	m.phase("scan b", 0, Profile{}).AddGetRequest(3)
	if got := m.PhaseReturnedBytes("scan"); got != 1000 {
		t.Errorf("returned = %d, want (7+3)*100", got)
	}
}
