package main

// This file is the benchmark's single list of workloads and metrics.
// BENCHMARK.json at the root of the repository restates it for the driver;
// TestBenchmarkJSONMatchesTables fails when the two drift apart.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"pushdown_cold", "SQL in process over CSV tables, paper-scale planner, no caches: parse, planner probes, pushed S3 Select scans and Bloom joins; selectengine's CSV executor does most of the work"},
	{"baseline_local", "the paper's baseline: whole-partition GETs, csvx decode, then filter/join/group-by in engine and vec; selectengine does nothing, so it moves opposite to pushdown_cold"},
	{"columnar_cold", "as pushdown_cold over colformat tables: selectengine's columnar executor, column pruning, vec.FromColumnar; shows a CSV gain that costs the columnar path, or the reverse"},
	{"serve_zipf", "what a pushdownd user feels: HTTP and JSON wire, admission, default tracing and the result cache under a Zipf mix of six templates returning 1 to 10k rows"},
}

// metricDef is one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before -compare (and the
// driver) calls it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is reported by every workload's untraced run and gated: these
// are the numbers that repeat. Allocation is first-order in this engine
// (mallocgc is a third of the CPU profile), the virtual clock and bill are
// the paper's result, and all four are exact for one seed. The issue's
// four wall-clock metrics are measured just the same but sit at the head of
// perLayer, ungated: on the two-core sandbox this benchmark was built on
// their spread over ten runs reached 33 %, above any bound the driver
// allows (README.md has the table), and the issue's noise rule sends
// such a metric to the per-layer list. Its tenth metric, failed_frac, is the
// result line's failed/attempted pair: a number that reads 0 on every
// healthy run cannot carry a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.05},
	{"mallocs_per_query", "count", "lower", 0.05},
	{"rss_mb_peak", "MB", "lower", 0.25},
	{"virt_runtime_s", "s", "lower", 0.02},
	{"virt_cost_usd", "usd", "lower", 0.02},
}

// templateNames lists every workload's templates in issue order; each
// gets a query.<template>_ms_p50 per-layer metric, reported as 0 by the
// workloads that do not run it.
var templateNames = []string{
	"q1", "q3", "q6", "q14", "q19",
	"base_q1", "base_q3", "base_q6", "base_q14", "base_q17", "base_q19",
	"col_q1", "col_q6", "col_rows", "col_topk", "col_minmax",
	"dash_q6", "point_orders", "join_q14", "join_q3", "export_rows", "report_q1",
}

// perLayer is reported by the traced run (--trace 1). Layers are this
// repository's packages. A workload that bypasses a layer reports 0 for
// it; README.md says which end-to-end metric each one should move.
var perLayer = func() []metricDef {
	ms := []metricDef{
		// The measured run's wall-clock view, as the issue defines it.
		{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
		{Name: "wall_ms_geomean", Unit: "ms", Better: "lower"},
		{Name: "wall_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},

		{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},

		{Name: "engine.plan_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.plan_share", Unit: "ratio", Better: "lower"},
		{Name: "engine.probe_selects", Unit: "count", Better: "lower"},
		{Name: "engine.scan_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.local_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.glue_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.unattributed_frac", Unit: "ratio", Better: "lower"},
		{Name: "engine.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
		{Name: "engine.plan_qerror_max", Unit: "ratio", Better: "lower"},
		{Name: "engine.join_steps_bloom", Unit: "count", Better: "higher"},
		{Name: "engine.join_steps_baseline", Unit: "count", Better: "lower"},
		{Name: "engine.join_steps_filtered", Unit: "count", Better: "higher"},
		{Name: "engine.join_steps_indexscan", Unit: "count", Better: "higher"},

		{Name: "selectengine.busy_ms", Unit: "ms", Better: "lower"},
		{Name: "selectengine.selects", Unit: "count", Better: "lower"},
		{Name: "selectengine.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "selectengine.rows_out_per_row_in", Unit: "ratio", Better: "lower"},
		{Name: "selectengine.returned_kb", Unit: "KB", Better: "lower"},
		{Name: "selectengine.cells_decoded", Unit: "count", Better: "lower"},

		{Name: "s3api.gets", Unit: "count", Better: "lower"},
		{Name: "s3api.get_mb", Unit: "MB", Better: "lower"},
		{Name: "s3api.get_busy_ms", Unit: "ms", Better: "lower"},

		{Name: "csvx.decode_mb_per_s", Unit: "MB/s", Better: "higher"},

		{Name: "colformat.read_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "colformat.decompress_mb", Unit: "MB", Better: "lower"},

		{Name: "vec.from_strings_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
		{Name: "vec.from_rows_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
		{Name: "vec.to_rows_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
		{Name: "vec.filter_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
		{Name: "vec.groupby_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
		{Name: "vec.join_mrows_per_s", Unit: "Mrows/s", Better: "higher"},

		{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "rescache.evictions_per_query", Unit: "count", Better: "lower"},
		{Name: "rescache.used_mb", Unit: "MB", Better: "lower"},
		{Name: "rescache.get_us", Unit: "us", Better: "lower"},

		{Name: "scanshare.coalesced_frac", Unit: "ratio", Better: "higher"},
		{Name: "scanshare.sharers_per_pass", Unit: "count", Better: "higher"},
		{Name: "scanshare.fallbacks", Unit: "count", Better: "lower"},

		{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "server.overhead_us_per_row", Unit: "us", Better: "lower"},
		{Name: "server.wire_bytes_per_row", Unit: "B", Better: "lower"},
		{Name: "server.rejected_frac", Unit: "ratio", Better: "lower"},
		{Name: "server.qps_c2", Unit: "1/s", Better: "higher"},
		{Name: "server.wall_ms_p90_c2", Unit: "ms", Better: "lower"},
		{Name: "server.cpu_ms_per_query_c2", Unit: "ms", Better: "lower"},

		{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},

		{Name: "cloudsim.requests", Unit: "count", Better: "lower"},
		{Name: "cloudsim.scan_gb", Unit: "GB", Better: "lower"},
		{Name: "cloudsim.transfer_gb", Unit: "GB", Better: "lower"},
		{Name: "cloudsim.pushdown_speedup_x", Unit: "x", Better: "higher"},
		{Name: "cloudsim.pushdown_cost_ratio", Unit: "ratio", Better: "lower"},

		{Name: "process.gc_cycles_per_query", Unit: "count", Better: "lower"},
		{Name: "process.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "process.heap_live_mb_peak", Unit: "MB", Better: "lower"},
		{Name: "process.steal_frac", Unit: "ratio", Better: "lower"},
	}
	for _, t := range templateNames {
		ms = append(ms, metricDef{Name: "query." + t + "_ms_p50", Unit: "ms", Better: "lower"})
		ms = append(ms, metricDef{Name: "query." + t + "_samples", Unit: "count", Better: "higher"})
	}
	return ms
}()

// metricValue is one measured number with its unit, as the result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// render turns the measured values into the result line's metrics object,
// with the units of defs. A name defs does not list is a typo in the
// benchmark, so it panics; a listed metric nobody set reads 0, which is
// what a workload that bypasses the layer reports.
func (m metricSet) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " is not in the metric table")
		}
	}
	return out
}
