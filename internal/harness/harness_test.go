package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pushdowndb/internal/engine"
)

// The harness tests assert the paper's qualitative claims ("shapes") on
// the paper-scale virtual clock: who wins, roughly by what factor, and
// where crossovers fall.

func testEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(SmallScale())
}

func point(t *testing.T, r *Result, series, x string) Point {
	t.Helper()
	p, ok := r.Get(series, x)
	if !ok {
		t.Fatalf("%s: missing point (%s, %s)\n%s", r.ID, series, x, r)
	}
	return p
}

func TestFig1Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig1(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// S3-side filter is ~10x faster than server-side, stable across the
	// sweep (paper: "a dramatic 10x ... remains stable").
	for _, x := range []string{"1e-07", "1e-04", "1e-02"} {
		server := point(t, r, "Server-Side Filter", x)
		s3 := point(t, r, "S3-Side Filter", x)
		speedup := server.RuntimeSec / s3.RuntimeSec
		if speedup < 5 || speedup > 20 {
			t.Errorf("at %s: S3-side speedup %.1fx, paper reports ~10x", x, speedup)
		}
	}
	// Indexing matches S3-side at high selectivity but degrades past 1e-4.
	idxHigh := point(t, r, "Indexing", "1e-07")
	s3High := point(t, r, "S3-Side Filter", "1e-07")
	if idxHigh.RuntimeSec > s3High.RuntimeSec*1.5 {
		t.Errorf("indexing at 1e-7 (%.1fs) should be comparable to s3-side (%.1fs)",
			idxHigh.RuntimeSec, s3High.RuntimeSec)
	}
	idxLow := point(t, r, "Indexing", "1e-02")
	s3Low := point(t, r, "S3-Side Filter", "1e-02")
	if idxLow.RuntimeSec < s3Low.RuntimeSec*2 {
		t.Errorf("indexing at 1e-2 (%.1fs) should degrade well past s3-side (%.1fs)",
			idxLow.RuntimeSec, s3Low.RuntimeSec)
	}
	// Indexing is cheapest at high selectivity; its cost explodes at 1e-2
	// from the per-row GET requests (paper Fig. 1b shows $0.30).
	if idxHigh.Cost.Total() >= point(t, r, "Server-Side Filter", "1e-07").Cost.Total() {
		t.Error("indexing at 1e-7 should be the cheapest strategy")
	}
	if idxLow.Cost.RequestUSD < 0.05 {
		t.Errorf("indexing request cost at 1e-2 = $%.4f, paper shows ~$0.24 of requests",
			idxLow.Cost.RequestUSD)
	}
}

func TestFig2Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig2(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Baseline and filtered joins perform similarly (both load all of
	// orders); Bloom join is significantly faster at high selectivity.
	for _, x := range Fig2Acctbals {
		base := point(t, r, "Baseline Join", x)
		filt := point(t, r, "Filtered Join", x)
		ratio := base.RuntimeSec / filt.RuntimeSec
		if ratio < 0.5 || ratio > 2.2 {
			t.Errorf("at %s: baseline/filtered = %.2f, paper says they are similar", x, ratio)
		}
	}
	base := point(t, r, "Baseline Join", "-950")
	bloom := point(t, r, "Bloom Join", "-950")
	if base.RuntimeSec/bloom.RuntimeSec < 2.5 {
		t.Errorf("bloom join at -950 should be much faster: baseline %.1fs vs bloom %.1fs",
			base.RuntimeSec, bloom.RuntimeSec)
	}
	// Bloom join degrades as the customer filter loosens.
	bloomLoose := point(t, r, "Bloom Join", "-450")
	if bloomLoose.RuntimeSec <= bloom.RuntimeSec {
		t.Error("bloom join should slow down as selectivity drops")
	}
}

func TestFig3Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig3(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Filtered join beats baseline when the orders filter is selective...
	baseTight := point(t, r, "Baseline Join", "1992-03-01")
	filtTight := point(t, r, "Filtered Join", "1992-03-01")
	if baseTight.RuntimeSec/filtTight.RuntimeSec < 1.5 {
		t.Errorf("filtered join should win with a tight orders filter: %.1fs vs %.1fs",
			baseTight.RuntimeSec, filtTight.RuntimeSec)
	}
	// ...and the advantage disappears with no filter.
	baseNone := point(t, r, "Baseline Join", "None")
	filtNone := point(t, r, "Filtered Join", "None")
	if filtNone.RuntimeSec < baseNone.RuntimeSec*0.6 {
		t.Error("filtered join advantage should disappear without an orders filter")
	}
	// Bloom join stays fast and fairly flat.
	bloomTight := point(t, r, "Bloom Join", "1992-03-01")
	bloomNone := point(t, r, "Bloom Join", "None")
	if bloomNone.RuntimeSec > bloomTight.RuntimeSec*4 {
		t.Errorf("bloom join should remain fairly constant: %.1fs -> %.1fs",
			bloomTight.RuntimeSec, bloomNone.RuntimeSec)
	}
	if bloomNone.RuntimeSec > filtNone.RuntimeSec {
		t.Error("bloom join should beat filtered join when orders are unfiltered")
	}
}

func TestFig4Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig4(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// The best FPR is in the middle (paper: 0.01): too-low FPR pays S3
	// compute for a huge filter, too-high FPR returns too much data.
	best := point(t, r, "Bloom Join", "0.01").RuntimeSec
	if lo := point(t, r, "Bloom Join", "0.0001").RuntimeSec; lo < best {
		t.Errorf("FPR 1e-4 (%.2fs) should not beat 0.01 (%.2fs)", lo, best)
	}
	if hi := point(t, r, "Bloom Join", "0.5").RuntimeSec; hi < best {
		t.Errorf("FPR 0.5 (%.2fs) should not beat 0.01 (%.2fs)", hi, best)
	}
	// More data returned at looser FPR.
	tight := point(t, r, "Bloom Join", "0.0001").Extra["returnedMB"]
	loose := point(t, r, "Bloom Join", "0.5").Extra["returnedMB"]
	if loose <= tight {
		t.Errorf("returned bytes should grow with FPR: %.2fMB -> %.2fMB", tight, loose)
	}
}

func TestFig5Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig5(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Server-side and filtered are flat in the group count; filtered wins
	// by loading only 4+1 of 20 columns.
	for _, x := range []string{"2", "32"} {
		server := point(t, r, "Server-Side Group-By", x)
		filtered := point(t, r, "Filtered Group-By", x)
		if filtered.RuntimeSec >= server.RuntimeSec {
			t.Errorf("filtered group-by should beat server-side at %s groups", x)
		}
	}
	// S3-side wins at few groups and degrades as groups grow, crossing
	// filtered before 32 groups (paper Fig. 5a).
	s3At2 := point(t, r, "S3-Side Group-By", "2")
	filtAt2 := point(t, r, "Filtered Group-By", "2")
	if s3At2.RuntimeSec >= filtAt2.RuntimeSec {
		t.Errorf("s3-side at 2 groups (%.1fs) should beat filtered (%.1fs)",
			s3At2.RuntimeSec, filtAt2.RuntimeSec)
	}
	s3At32 := point(t, r, "S3-Side Group-By", "32")
	filtAt32 := point(t, r, "Filtered Group-By", "32")
	if s3At32.RuntimeSec <= filtAt32.RuntimeSec {
		t.Errorf("s3-side at 32 groups (%.1fs) should have crossed filtered (%.1fs)",
			s3At32.RuntimeSec, filtAt32.RuntimeSec)
	}
	if s3At32.RuntimeSec <= s3At2.RuntimeSec {
		t.Error("s3-side group-by should degrade with group count")
	}
}

func TestFig6Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig6(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// More S3-side groups: S3 time grows, server time and bytes shrink.
	first := point(t, r, "Hybrid Group-By", "1")
	last := point(t, r, "Hybrid Group-By", "12")
	if last.Extra["s3SideSec"] <= first.Extra["s3SideSec"] {
		t.Error("S3-side time should grow with pushed groups")
	}
	if last.Extra["serverSideSec"] >= first.Extra["serverSideSec"] {
		t.Error("server-side time should shrink with pushed groups")
	}
	if last.Extra["returnedGB"] >= first.Extra["returnedGB"] {
		t.Error("returned bytes should shrink with pushed groups")
	}
	// The cheapest split is in the paper's band: 6 to 8 groups in S3.
	best := first
	for _, n := range Fig6S3Groups {
		if p := point(t, r, "Hybrid Group-By", fmt.Sprint(n)); p.RuntimeSec < best.RuntimeSec {
			best = p
		}
	}
	if best.X != "6" && best.X != "8" {
		t.Errorf("hybrid runs fastest with %s groups in S3 (%.2fs), want 6 or 8", best.X, best.RuntimeSec)
	}
}

func TestFig7Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig7(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Server-side and filtered are insensitive to skew.
	s0 := point(t, r, "Filtered Group-By", "0")
	s13 := point(t, r, "Filtered Group-By", "1.3")
	ratio := s13.RuntimeSec / s0.RuntimeSec
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("filtered group-by should be flat across skew, got ratio %.2f", ratio)
	}
	// Hybrid wins clearly at θ=1.3 (paper: 31% better than filtered).
	hybrid13 := point(t, r, "Hybrid Group-By", "1.3")
	filt13 := point(t, r, "Filtered Group-By", "1.3")
	if hybrid13.RuntimeSec >= filt13.RuntimeSec {
		t.Errorf("hybrid at θ=1.3 (%.1fs) should beat filtered (%.1fs)",
			hybrid13.RuntimeSec, filt13.RuntimeSec)
	}
	// At θ=0 hybrid has no meaningful advantage.
	hybrid0 := point(t, r, "Hybrid Group-By", "0")
	filt0 := point(t, r, "Filtered Group-By", "0")
	if hybrid0.RuntimeSec < filt0.RuntimeSec*0.7 {
		t.Error("hybrid should not have a large advantage at θ=0")
	}
}

func TestFig8Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig8(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Sampling time grows with S; scanning time shrinks with S; traffic is
	// minimized near the model's S*.
	small := point(t, r, "Sampling Top-K", "S*/16")
	mid := point(t, r, "Sampling Top-K", "S*")
	large := point(t, r, "Sampling Top-K", "16*S*")
	if large.Extra["samplingSec"] <= small.Extra["samplingSec"] {
		t.Error("sampling phase should grow with S")
	}
	if small.Extra["scanningSec"] <= large.Extra["scanningSec"] {
		t.Error("scanning phase should shrink with S")
	}
	if mid.Extra["returnedGB"] > small.Extra["returnedGB"] ||
		mid.Extra["returnedGB"] > large.Extra["returnedGB"] {
		t.Errorf("traffic at S* (%.4fGB) should be below the extremes (%.4f, %.4f)",
			mid.Extra["returnedGB"], small.Extra["returnedGB"], large.Extra["returnedGB"])
	}
}

func TestFig9Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig9(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Sampling top-K is consistently faster and cheaper than server-side.
	for _, x := range []string{"1", "10", "100"} {
		server := point(t, r, "Server-Side Top-K", x)
		sampling := point(t, r, "Sampling Top-K", x)
		if sampling.RuntimeSec >= server.RuntimeSec {
			t.Errorf("K=%s: sampling (%.1fs) should beat server-side (%.1fs)",
				x, sampling.RuntimeSec, server.RuntimeSec)
		}
		if sampling.Cost.Total() >= server.Cost.Total() {
			t.Errorf("K=%s: sampling ($%.4f) should be cheaper than server-side ($%.4f)",
				x, sampling.Cost.Total(), server.Cost.Total())
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig10(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Optimized beats baseline on every workload's runtime.
	for _, p := range r.Points {
		if p.Series != "PushdownDB (Optimized)" || p.X == "Geo-Mean" {
			continue
		}
		base := point(t, r, "PushdownDB (Baseline)", p.X)
		if p.RuntimeSec >= base.RuntimeSec {
			t.Errorf("%s: optimized (%.1fs) not faster than baseline (%.1fs)",
				p.X, p.RuntimeSec, base.RuntimeSec)
		}
	}
	// Headline: several-x geo-mean speedup and cheaper on average.
	bg := point(t, r, "PushdownDB (Baseline)", "Geo-Mean")
	og := point(t, r, "PushdownDB (Optimized)", "Geo-Mean")
	speedup := bg.RuntimeSec / og.RuntimeSec
	if speedup < 3 {
		t.Errorf("geo-mean speedup %.1fx, paper reports 6.7x — too far off", speedup)
	}
	if og.Cost.Total() >= bg.Cost.Total() {
		t.Errorf("optimized geo-mean cost ($%.4f) should be below baseline ($%.4f)",
			og.Cost.Total(), bg.Cost.Total())
	}
}

func TestFig11Shapes(t *testing.T) {
	env := testEnv(t)
	r, err := RunFig11(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Parquet wins clearly on wide tables at selective filters (column
	// pruning), and the advantage shrinks as more data is transferred.
	csv20 := point(t, r, "CSV 20-col", "0.01")
	col20 := point(t, r, "Parquet 20-col", "0.01")
	if col20.RuntimeSec >= csv20.RuntimeSec {
		t.Errorf("Parquet 20-col at sel 0.01 (%.2fs) should beat CSV (%.2fs)",
			col20.RuntimeSec, csv20.RuntimeSec)
	}
	adv001 := csv20.RuntimeSec / col20.RuntimeSec
	csvFull := point(t, r, "CSV 20-col", "1")
	colFull := point(t, r, "Parquet 20-col", "1")
	advFull := csvFull.RuntimeSec / colFull.RuntimeSec
	if advFull > adv001 {
		t.Errorf("Parquet advantage should shrink at selectivity 1: %.2fx -> %.2fx", adv001, advFull)
	}
	// On the 1-column table the formats are comparable.
	csv1 := point(t, r, "CSV 1-col", "0.1")
	col1 := point(t, r, "Parquet 1-col", "0.1")
	ratio := csv1.RuntimeSec / col1.RuntimeSec
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("1-col CSV/Parquet ratio %.2f should be modest", ratio)
	}
}

func TestAblations(t *testing.T) {
	env := testEnv(t)
	rs, err := RunFigures(context.Background(), env, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		checkGolden(t, r)
		t.Log("\n" + r.String())
	}
	// Suggestion 1: multi-range GET strictly cheaper in requests at low
	// selectivity.
	var s1 *Result
	for _, r := range rs {
		if r.ID == "Fig1-S1" {
			s1 = r
		}
	}
	perRow := point(t, s1, "Per-Row GETs", "1e-02")
	multi := point(t, s1, "Multi-Range GET", "1e-02")
	if multi.Cost.RequestUSD >= perRow.Cost.RequestUSD {
		t.Error("multi-range GET should cut request cost")
	}
	if multi.RuntimeSec >= perRow.RuntimeSec {
		t.Error("multi-range GET should cut runtime")
	}

	// Suggestion 5: light scans pay less under computation-aware pricing.
	var s5 *Result
	for _, r := range rs {
		if r.ID == "S5" {
			s5 = r
		}
	}
	flat := point(t, s5, "Flat Pricing", "plain projection")
	aware := point(t, s5, "Computation-Aware", "plain projection")
	if aware.Cost.ScanUSD >= flat.Cost.ScanUSD {
		t.Error("computation-aware pricing should discount plain projections")
	}

	// Section IX: columnar TPC-H scans agree and are not slower.
	var sec9 *Result
	for _, r := range rs {
		if r.ID == "Sec9" {
			sec9 = r
		}
	}
	csvQ6 := point(t, sec9, "CSV", "Q6 aggregate")
	colQ6 := point(t, sec9, "Parquet", "Q6 aggregate")
	if colQ6.RuntimeSec > csvQ6.RuntimeSec {
		t.Error("columnar Q6 scan should not be slower than CSV")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "X", Title: "t", XLabel: "x"}
	r.Points = append(r.Points, Point{Series: "a", X: "1", RuntimeSec: 2})
	s := r.String()
	if !strings.Contains(s, "== X: t ==") || !strings.Contains(s, "2.00") {
		t.Errorf("render:\n%s", s)
	}
}

// sameRowsExemptions are the only series a figure checks less than byte for
// byte (sameRows), with why, measured (ROADMAP finding 7): S3SideGroupBy
// and HybridGroupBy push float SUM partials, which round once per partition,
// so some of their sums differ in the last digits from the same statement's
// forced-baseline answer. Each entry runs the series beside the forced
// baseline at every x of its figure and counts the SUM cells that differ, of
// all of them; differ pins those counts. When the partials are exact (ROADMAP
// 17(b)) every count is 0 and the entry, with its figure's weaker check, goes.
var sameRowsExemptions = []struct {
	figure, series, check string
	thetas                []float64 // the group table's skews (-1: uniform)
	groupCols             []string
	run                   func(db *engine.DB, groupCol string) call
	differ                []string // per (θ, group column), in order
}{
	{"Fig5", "S3-Side Group-By", "sameGroupTotals", []float64{-1}, []string{"g1", "g2", "g3", "g4", "g5"}, s3SideGroupBy,
		[]string{"1 of 8", "3 of 16", "4 of 32", "7 of 64", "16 of 128"}},
	{"Fig7", "Hybrid Group-By", "sameGroupTotals", Fig7Thetas, []string{"g1"}, fig7Hybrid,
		[]string{"3 of 400", "5 of 400", "2 of 400", "4 of 400", "5 of 400"}},
	{"Fig10", "Group-by: PushdownDB (Optimized)", "sameGroupTotals", []float64{-1}, []string{"g3"}, s3SideGroupBy,
		[]string{"4 of 32"}},
}

func fig7Hybrid(db *engine.DB, _ string) call {
	return hybridGroupBy(db, engine.HybridGroupByOptions{S3Groups: 8})
}

func TestSameRowsExemptions(t *testing.T) {
	ctx := context.Background()
	env := testEnv(t)
	for _, ex := range sameRowsExemptions {
		var got []string
		for _, theta := range ex.thetas {
			db, err := env.GroupTable(theta)(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range ex.groupCols {
				want, _, err := forced(db, engine.StrategyBaseline, fig5SQL(col))(ctx)
				if err != nil {
					t.Fatal(err)
				}
				rel, _, err := ex.run(db, col)(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, differingSums(t, want, rel))
			}
		}
		if !slices.Equal(got, ex.differ) {
			t.Errorf("%s's %s (checked by %s): SUM cells differing from the forced baseline %q, pinned %q",
				ex.figure, ex.series, ex.check, got, ex.differ)
		}
	}
}

// differingSums compares two group-by answers group by group and says how
// many of want's SUM cells (every cell after the key) got renders otherwise.
func differingSums(t *testing.T, want, got *engine.Relation) string {
	t.Helper()
	byKey := map[string]engine.Row{}
	for _, r := range got.Rows {
		byKey[r[0].String()] = r
	}
	if len(byKey) != len(want.Rows) {
		t.Fatalf("%d groups, want %d", len(byKey), len(want.Rows))
	}
	n, of := 0, 0
	for _, r := range want.Rows {
		g, ok := byKey[r[0].String()]
		if !ok {
			t.Fatalf("group %s missing", r[0])
		}
		for j := 1; j < len(r); j++ {
			of++
			if g[j].String() != r[j].String() {
				n++
			}
		}
	}
	return fmt.Sprintf("%d of %d", n, of)
}
