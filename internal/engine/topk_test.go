package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Section VII: the sampling top-K is the planner's topk-threshold tail
// planned from a sample of the table's first rows; whatever the sample, it
// answers its statement as the forced baseline does.

// topKOf runs SamplingTopK and returns its answer and how its tail ran.
func topKOf(t *testing.T, db *DB, sql string, s int64) (*Relation, *AccessPlan) {
	t.Helper()
	e := db.NewExec()
	rel, err := e.SamplingTopK(sql, s)
	if err != nil {
		t.Fatalf("SamplingTopK(%q, %d): %v", sql, s, err)
	}
	return rel, accessOf(e)
}

func TestTopKAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	for _, order := range []string{"", " DESC"} {
		sql := "SELECT * FROM events ORDER BY v" + order + " LIMIT 10"
		server := forcedRel(t, db, StrategyBaseline, sql)
		sampled, ap := topKOf(t, db, sql, 100)
		if len(server.Rows) != 10 {
			t.Fatalf("%s: %d rows", sql, len(server.Rows))
		}
		identicalRel(t, sql, server, sampled)
		if ap.Pushed != PushedTopK || ap.Fallback != "" || !strings.HasPrefix(ap.Sample, "threshold ") {
			t.Errorf("%s: tail %+v, want the threshold of 100 sampled rows, held", sql, ap)
		}
		// About K·N/S = 100 rows pass; 10 to 1000 is sane.
		if ap.EstRows < 10 || ap.EstRows > 1000 || ap.ActualRows < 10 {
			t.Errorf("%s: %d rows expected back, %d came", sql, ap.EstRows, ap.ActualRows)
		}
		vi := server.ColIndex("v")
		for i := 1; i < len(server.Rows); i++ {
			c := value.Compare(server.Rows[i-1][vi], server.Rows[i][vi])
			if order == "" && c > 0 || order != "" && c < 0 {
				t.Errorf("%s: rows out of order at %d", sql, i)
			}
		}
	}
}

// TestSamplingTopKAutoSampleSize: S = 0 samples S* rows, the model's optimum
// over the N of the table's statistics object.
func TestSamplingTopKAutoSampleSize(t *testing.T) {
	db, _ := newTestDB(t)
	sql := "SELECT k, v FROM events ORDER BY v LIMIT 5"
	tr := obs.New("t", "topk")
	got, err := db.NewExecContext(obs.WithTrace(context.Background(), tr)).SamplingTopK(sql, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	identicalRel(t, sql, forcedRel(t, db, StrategyBaseline, sql), got)
	sStar := OptimalSampleSize(5, 1000, SamplingAlpha)
	if rows, _ := tr.Snapshot().Find("sample events").Int("rows"); rows != 4*(sStar/4) {
		t.Errorf("phase 1 sampled %d rows, want the %d of S* = %d over 4 partitions", rows, 4*(sStar/4), sStar)
	}
}

// TestSamplingTopKDegradesOnTinySample: a sample of fewer than K rows yields
// no threshold, and the statement runs as the plain filtered scan.
func TestSamplingTopKDegradesOnTinySample(t *testing.T) {
	db, _ := newTestDB(t)
	sql := "SELECT * FROM events ORDER BY v LIMIT 50"
	got, ap := topKOf(t, db, sql, 8)
	identicalRel(t, "degraded sampling", forcedRel(t, db, StrategyBaseline, sql), got)
	if ap.Pushed != "" || !strings.Contains(ap.NotPushed, "more than the 8 sample rows") {
		t.Errorf("tail %+v, want no threshold from 8 rows", ap)
	}
}

// topKRows is TestSamplingTopKAnswersItsStatement's table. v and u mix
// integers, text, dates and NULL in every run of four rows; u's text is 5x,
// and 9 < 10 as numbers, 10 < 5x and 5x < 9 as text, so no comparison orders
// it. w repeats 23 integers, so a threshold always ties, and is NULL in the
// last rows of every hundred, past what a small sample of a partition's first
// rows sees; so is z's one date among integers.
func topKRows() [][]string {
	var rows [][]string
	for i := 0; i < 400; i++ {
		v := []string{fmt.Sprint(i % 50), fmt.Sprintf("%dx", i%9), fmt.Sprintf("1998-12-0%d", 1+i%9), ""}[i%4]
		u := []string{fmt.Sprint(i % 50), "5x", fmt.Sprintf("1998-12-0%d", 1+i%9), ""}[i%4]
		w := fmt.Sprint(i * 37 % 23)
		if i%100 == 97 {
			w = ""
		}
		z := fmt.Sprint(500 + i)
		if i == 330 {
			z = "1994-01-01"
		}
		rows = append(rows, []string{fmt.Sprint(i + 1), v, w, u, z})
	}
	return rows
}

// TestSamplingTopKAnswersItsStatement: the sampling top-K answers its
// statement byte for byte as the forced baseline does — NULL keys first
// ascending, ties at the threshold in table order, a key whose cells mix
// numbers, text and dates — at every sample size (K-1 yields no threshold,
// 0 is S*), over one and four partitions, CSV and colformat; and a statement
// with no top-K to sample for is a bad request that says why.
func TestSamplingTopKAnswersItsStatement(t *testing.T) {
	const k = 5
	statements := []struct {
		sql     string
		csvOnly bool
	}{
		{"SELECT * FROM t ORDER BY v DESC LIMIT 5", false},
		{"SELECT * FROM t ORDER BY v LIMIT 5", false},
		{"SELECT * FROM t ORDER BY w LIMIT 5", false},
		{"SELECT * FROM t ORDER BY w DESC LIMIT 5", false},
		{"SELECT id, w + 1 AS x FROM t WHERE id > 3 ORDER BY x DESC, id LIMIT 5", false},
		// Over colformat, u's and z's forced baseline is not their plain
		// filtered scan at all: the load keeps a text column's cells text, a
		// pushed scan's CSV response is typed again cell by cell, and no order
		// holds over their classes. That is no sampling's doing (ROADMAP
		// direction 10).
		{"SELECT * FROM t ORDER BY u DESC LIMIT 5", true},
		{"SELECT * FROM t ORDER BY z DESC LIMIT 5", true},
	}
	header := []string{"id", "v", "w", "u", "z"}
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindInt, value.KindString, value.KindString}
	pushed := 0
	for _, parts := range []int{1, 4} {
		for _, columnar := range []bool{false, true} {
			st := store.New()
			loadPush(t, st, "t", header, kinds, topKRows(), parts, columnar)
			db := openOver(t, pushBucket, st)
			for _, q := range statements {
				if columnar && q.csvOnly {
					continue
				}
				want := render(forcedRel(t, db, StrategyBaseline, q.sql), true)
				for _, s := range []int64{k - 1, 20, 200, 0} {
					got, ap := topKOf(t, db, q.sql, s)
					if got := render(got, true); got != want {
						t.Errorf("%d partitions, columnar=%v, S=%d: %s\n%s\nwant\n%s\n(tail %+v)", parts, columnar, s, q.sql, got, want, ap)
					}
					if ap.Pushed != "" {
						pushed++
					}
				}
			}
		}
	}
	if pushed == 0 {
		t.Error("no sample yielded a threshold: the battery never ran the threshold scan")
	}

	st := store.New()
	loadPush(t, st, "t", header, nil, topKRows(), 2, false)
	db := openOver(t, pushBucket, st)
	for sql, why := range map[string]string{
		"SELECT w, COUNT(*) AS n FROM t GROUP BY w ORDER BY w LIMIT 3": "grouped",
		"SELECT * FROM t ORDER BY w DESC":                              "no LIMIT",
		"SELECT * FROM t ORDER BY LOWER(v) LIMIT 3":                    "ORDER BY key LOWER(v) is more than columns and arithmetic",
		"SELECT * FROM t ORDER BY w LIMIT 0":                           "LIMIT 0 returns nothing",
	} {
		_, err := db.NewExec().SamplingTopK(sql, 20)
		if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(err.Error(), why) {
			t.Errorf("%s: error %v, want a bad request saying %q", sql, err, why)
		}
	}
	if _, err := db.NewExec().SamplingTopK("SELECT FROM", 20); err == nil {
		t.Error("SamplingTopK took a statement that does not parse")
	}
}

func TestOptimalSampleSize(t *testing.T) {
	// Paper's worked example: K=100, N=6e7, alpha=0.1 -> ~2.4e5.
	s := OptimalSampleSize(100, 60_000_000, 0.1)
	if s < 240_000 || s > 250_000 {
		t.Errorf("S = %d, want ~245k", s)
	}
	if OptimalSampleSize(10, 5, 1) != 5 {
		t.Error("sample size must clamp to N")
	}
	if OptimalSampleSize(100, 101, 1) < 100 {
		t.Error("sample size must be at least K")
	}
}
