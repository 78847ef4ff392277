package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.golden from this run instead of comparing")

// checkGolden pins a figure's rendered table at SmallScale: every number in
// it is on the virtual clock, so a refactor that claims "behaviour
// unchanged" must reproduce the file byte for byte. The shape tests call it
// on the result they already rendered, so pinning costs no second run.
func checkGolden(t *testing.T, r *Result) {
	t.Helper()
	path := filepath.Join("testdata", "golden", r.ID+".golden")
	got := r.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/harness -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (re-run with -update only if the change is intended)\n--- got\n%s--- want\n%s",
			r.ID, path, got, want)
	}
}

// TestEveryFigureIsPinned ties the registry to the goldens: every figure
// but Serve (concurrent clients; not byte-stable) has a golden file, which
// only a shape test that renders it can have written.
func TestEveryFigureIsPinned(t *testing.T) {
	for _, f := range Figures {
		if f.ID == "Serve" {
			continue
		}
		if _, err := os.Stat(filepath.Join("testdata", "golden", f.ID+".golden")); err != nil {
			t.Errorf("figure %s: %v", f.ID, err)
		}
	}
}
