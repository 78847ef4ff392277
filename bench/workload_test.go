package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestServeStreamIsAPureFunctionOfItsSeed(t *testing.T) {
	draw := func(seed int64) []int {
		s := newServeStream(seed)
		var out []int
		for i := 0; i < 3; i++ {
			out = append(out, s.deal()...)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two streams with the same seed dealt different requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("streams with different seeds dealt the same order")
	}
	// Whatever the seed, a deck asks for the same work.
	sort.Ints(a[:100])
	sort.Ints(c[:100])
	if !reflect.DeepEqual(a[:100], c[:100]) {
		t.Error("decks of different seeds hold different requests")
	}
}

func TestServeDeckHoldsTheStatedMix(t *testing.T) {
	stmts := serveStatements()
	perTemplate := map[string]int{}
	perStatement := map[int]int{}
	for _, i := range serveDeck() {
		perTemplate[stmts[i].template]++
		perStatement[i]++
	}
	first := 0
	for _, tpl := range serveTemplates() {
		if perTemplate[tpl.name] != tpl.weight {
			t.Errorf("%s: %d requests per deck, want its weight %d", tpl.name, perTemplate[tpl.name], tpl.weight)
		}
		for k := range tpl.sqls {
			if perStatement[first+k] == 0 {
				t.Errorf("%s parameter %d is never requested, so the oracle computes an answer nobody checks", tpl.name, k)
			}
			if k > 0 && perStatement[first+k] > perStatement[first+k-1] {
				t.Errorf("%s parameter %d is requested more often than parameter %d; want Zipf order", tpl.name, k, k-1)
			}
		}
		first += len(tpl.sqls)
	}
}

func TestTemplateNamesCoverEveryWorkload(t *testing.T) {
	var got []string
	for _, w := range workloadDefs {
		got = append(got, templatesOf(workloadSpecs[w.Name].statements())...)
	}
	if !reflect.DeepEqual(got, templateNames) {
		t.Errorf("templates of the workloads = %v, want metrics.go's templateNames %v", got, templateNames)
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver's view and the code's in
// step, and inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\nfile %v\ncode %v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile %v\ncode %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile %v\ncode %v", file.PerLayer, perLayer)
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics; the contract allows 128 and 16", len(perLayer), len(endToEnd))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}
