package main

import (
	"testing"

	"pushdowndb/internal/obs"
)

// handBuiltTree is a 100 ms query: a 20 ms plan with a probe under it, then
// a 70 ms scan whose four partition selects overlap pairwise (two cores),
// followed inside the scan by a 10 ms decode; the last 10 ms nothing covers.
//
//	query        0..100
//	  select     0..90                 (statement span: structural)
//	    plan     0..20
//	      plan probe t 5..20
//	        select t/p0 5..18
//	    scan t   20..90
//	      select t/p0 20..50
//	      select t/p1 25..60           overlaps p0
//	      select t/p2 60..75
//	      select t/p3 55..78           overlaps p1 and p2
//	      decode      78..88
func handBuiltTree() *obs.SpanData {
	ms := func(id int, name string, from, to int64, kids ...*obs.SpanData) *obs.SpanData {
		return &obs.SpanData{ID: id, Name: name, StartUS: from * 1000, DurUS: (to - from) * 1000, Children: kids}
	}
	return ms(1, "query", 0, 100,
		ms(2, "select", 0, 90,
			ms(3, "plan", 0, 20,
				ms(4, "plan probe t", 5, 20,
					ms(5, "select t/p0", 5, 18))),
			ms(6, "scan t", 20, 90,
				ms(7, "select t/p0", 20, 50),
				ms(8, "select t/p1", 25, 60),
				ms(9, "select t/p2", 60, 75),
				ms(10, "select t/p3", 55, 78),
				ms(11, "decode", 78, 88))))
}

func TestSelfTimeUsesTheUnionOfOverlappingChildren(t *testing.T) {
	root := handBuiltTree()
	scan := root.Find("scan t")
	// Children cover 20..88 once, not 30+35+15+23+10 = 113 ms.
	if got := selfUS(scan); got != 2000 {
		t.Errorf("scan self time = %d us, want 2000", got)
	}
	if got := selfUS(root); got != 10000 {
		t.Errorf("root self time = %d us, want 10000", got)
	}
	// A child that outlives its parent only covers the part inside it.
	late := &obs.SpanData{Name: "p", StartUS: 0, DurUS: 10, Children: []*obs.SpanData{{Name: "c", StartUS: 5, DurUS: 50}}}
	if got := selfUS(late); got != 5 {
		t.Errorf("self time with an overhanging child = %d us, want 5", got)
	}
}

func TestAttributeSplitsTheRootExactly(t *testing.T) {
	root := handBuiltTree()
	got := attribute(root)
	want := [numClasses]int64{
		classRoot:   10000, // 90..100
		classGlue:   2000,  // scan t's own 88..90; select has none
		classPlan:   20000, // the whole plan span, probe select included
		classScan:   58000, // union of the four partition selects, 20..78
		classDecode: 10000,
		classLocal:  0,
	}
	if got != want {
		t.Errorf("attribute = %v, want %v", got, want)
	}
	var sum int64
	for _, us := range got {
		sum += us
	}
	if sum != root.DurUS {
		t.Errorf("classes sum to %d us, want the root's %d", sum, root.DurUS)
	}
	if got[classRoot] != selfUS(root) {
		t.Errorf("unattributed time %d us differs from the root's self time %d", got[classRoot], selfUS(root))
	}
	if c := countSpans(root); c.probeSelects != 1 {
		t.Errorf("probe selects = %d, want 1 (scan selects are not probes)", c.probeSelects)
	}
}

func TestClassifyByName(t *testing.T) {
	for name, want := range map[string]spanClass{
		"select":                    classGlue,
		"select lineitem/part0.csv": classScan,
		"get lineitem/part0.csv":    classScan,
		"fetch lineitem/part0.csv":  classScan,
		"plan":                      classPlan,
		"plan probe orders":         classPlan,
		"header orders":             classPlan,
		"decode":                    classDecode,
		"hash join local":           classLocal,
		"groupby":                   classLocal,
		"bloom probe lineitem":      classGlue,
		"join 2":                    classGlue,
	} {
		if got := classify(name); got != want {
			t.Errorf("classify(%q) = %d, want %d", name, got, want)
		}
	}
}
