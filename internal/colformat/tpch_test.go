package colformat_test

import (
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// TestTypedReaderMatchesReferenceOnTPCH reads every chunk of the TPC-H
// columnar tables — the objects columnar_cold scans — both ways: the typed
// vector must be, layout and cell for cell, what FromValues builds from the
// boxed reader's values.
func TestTypedReaderMatchesReferenceOnTPCH(t *testing.T) {
	st := store.New()
	d, err := tpch.LoadColumnar(st, tpch.Dataset{SF: 0.002, Seed: 42, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, table := range []string{"customer_col", "orders_col", "lineitem_col", "part_col"} {
		for _, key := range st.TableParts(d.Bucket, table) {
			data, err := st.Get(d.Bucket, key)
			if err != nil {
				t.Fatal(err)
			}
			r, err := colformat.Open(data)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			for g := 0; g < r.NumRowGroups(); g++ {
				for c := range r.Schema() {
					got, _, err := r.ReadColumn(g, c)
					if err != nil {
						t.Fatalf("%s chunk (%d,%d): %v", key, g, c, err)
					}
					ref, err := colformat.ReferenceReadColumn(r, g, c)
					if err != nil {
						t.Fatalf("%s chunk (%d,%d): reference: %v", key, g, c, err)
					}
					if d := colformat.DiffReference(got, ref); d != "" {
						t.Fatalf("%s chunk (%d,%d) %s: %s", key, g, c, r.Schema()[c].Name, d)
					}
					chunks++
				}
			}
		}
	}
	if chunks < 300 {
		t.Fatalf("compared only %d chunks", chunks)
	}
}
