// Package lint is the pushdownlint analyzer suite: repo-specific static
// checks that mechanize the engine's correctness conventions so they are
// enforced by machine rather than review. The four analyzers and the
// invariants they encode:
//
//   - ctxflow: no context.Background()/TODO() in library code — per-request
//     deadlines (PR 6) must reach every backend call.
//   - errkind: errors born on backend paths carry an s3api.Kind — a naked
//     fmt.Errorf surfaces at the server as "internal" (PR 6).
//   - mapdeterminism: no order-sensitive work (float/string accumulation,
//     printing, unsorted collection) inside a range over a map on result
//     paths — the byte-identical invariant (PR 2).
//   - exactagg: no float64 accumulation where merge order can perturb
//     results — aggregation sums and merges exactly (expr.AggState).
//
// Two invariants need no analyzer because the compiler keeps them: a
// priced storage call takes the phase it bills (s3api.Metered), and a
// phase opens only bound to the span that reports it
// (cloudsim.Metrics.Open).
//
// See docs/ARCHITECTURE.md "Static analysis & invariants" for the rules
// and the //lint:ignore suppression convention.
package lint

import (
	"fmt"
	"sort"

	"pushdowndb/internal/lint/analysis"
	"pushdowndb/internal/lint/load"
)

// All returns the full pushdownlint suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Ctxflow, Errkind, MapDeterminism, ExactAgg}
}

// Run applies the analyzers to the packages — each analyzer only where its
// InScope admits the package — filters the findings through the
// //lint:ignore suppression convention, and returns them position-sorted.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	for _, p := range pkgs {
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			if a.InScope != nil && !a.InScope(p.PkgPath) {
				continue
			}
			pass := &analysis.Pass{Analyzer: a, Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, p.PkgPath, err)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
		out = append(out, analysis.Filter(diags, analysis.Suppressions(p.Fset, p.Files))...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
