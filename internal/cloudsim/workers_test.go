package cloudsim

import "testing"

func TestWorkerBudget(t *testing.T) {
	cases := []struct {
		cores, workers, want int
	}{
		{32, 0, 1}, // unset: sequential
		{32, 1, 1},
		{32, 8, 8},
		{32, 64, 32}, // capped at the node's cores
		{0, 5, 5},    // no core count known: trust the knob
		{32, -3, 1},
	}
	for _, tc := range cases {
		cfg := Config{Cores: tc.cores, Workers: tc.workers}
		if got := cfg.WorkerBudget(); got != tc.want {
			t.Errorf("Cores=%d Workers=%d: budget %d, want %d", tc.cores, tc.workers, got, tc.want)
		}
	}
}

// TestWorkersShrinkServerWallClock: row work and parse terms divide their
// wall-clock across the worker budget; pure request latency does not, and
// byte-based pricing is untouched.
func TestWorkersShrinkServerWallClock(t *testing.T) {
	run := func(workers int) (*Metrics, *Phase) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := NewMetrics(cfg)
		ph := m.phase("load", 0, Profile{})
		ph.AddGetRequest(1 << 30)    // 1 GB bulk load: parse-bound
		ph.AddServerRows(50_000_000) // plus heavy row work
		return m, ph
	}
	m1, _ := run(1)
	m8, _ := run(8)
	m32, _ := run(32)
	s1, s8, s32 := m1.RuntimeSeconds(), m8.RuntimeSeconds(), m32.RuntimeSeconds()
	if !(s32 < s8 && s8 < s1) {
		t.Fatalf("wall-clock must shrink with workers: %g, %g, %g", s1, s8, s32)
	}
	// The 1 GB load: ~10.7s parse + 10s row work at 1 worker; at 32 the
	// network transfer (~0.86s) becomes the bound.
	if s1 < 10 {
		t.Errorf("sequential run should be parse/row-work bound, got %gs", s1)
	}

	// Pricing is wall-clock (compute) plus byte volumes; the byte terms
	// must not change with the budget.
	p := DefaultPricing()
	c1, c32 := m1.Cost(p), m32.Cost(p)
	if c1.ScanUSD != c32.ScanUSD || c1.TransferUSD != c32.TransferUSD || c1.RequestUSD != c32.RequestUSD {
		t.Error("worker budget changed byte/request pricing")
	}
	if c32.ComputeUSD >= c1.ComputeUSD {
		t.Error("faster wall-clock should cost less compute")
	}

	// A phase that is pure request latency is unaffected.
	lat := func(workers int) float64 {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := NewMetrics(cfg)
		m.phase("probe", 0, Profile{}).AddRowFetchRequest(100)
		return m.RuntimeSeconds()
	}
	if lat(1) != lat(32) {
		t.Error("request latency must not divide across workers")
	}
}

// TestJoinPlanFlipsWithWorkers: at a loose build-side filter the Bloom
// join beats the baseline on a sequential server, but a 32-worker server
// parses its full-table loads fast enough that the baseline wins — the
// planner decision the harness Parallel figure shows flipping.
func TestJoinPlanFlipsWithWorkers(t *testing.T) {
	build := PlanTableStats{
		Bytes: 250e6, Rows: 1_500_000, FilteredRows: 750_000,
		Cols: 8, Partitions: 32, FilterNodes: 5, ProjCols: 1,
	}
	probe := PlanTableStats{
		Bytes: 1_700e6, Rows: 15_000_000, FilteredRows: 15_000_000,
		Cols: 9, Partitions: 32,
	}
	matchFrac := build.Selectivity()
	pick := func(workers int) (string, PlanEstimate, PlanEstimate) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		base := EstimateBaselineJoin(cfg, Unit(), DefaultPricing(), build, probe)
		bloom := EstimateBloomJoin(cfg, Unit(), DefaultPricing(), build, probe, matchFrac, 0.01)
		if bloom.Cheaper(base) {
			return "bloom", base, bloom
		}
		return "baseline", base, bloom
	}
	seqPick, seqBase, _ := pick(1)
	parPick, parBase, _ := pick(32)
	if seqPick != "bloom" {
		t.Errorf("sequential server should pick bloom, got %s", seqPick)
	}
	if parPick != "baseline" {
		t.Errorf("32-worker server should pick baseline, got %s", parPick)
	}
	if parBase.Seconds >= seqBase.Seconds {
		t.Errorf("baseline estimate should shrink with workers: %.3fs -> %.3fs",
			seqBase.Seconds, parBase.Seconds)
	}
}
