package lint

import (
	"go/ast"
	"path/filepath"

	"pushdowndb/internal/lint/analysis"
)

// stepFile is the one engine file that may open a cloudsim phase.
const stepFile = "step.go"

// Spanphase holds the engine to one place where cloudsim phases open: only
// step.go may call a function whose result is a *cloudsim.Phase —
// Metrics.Phase, Metrics.PhaseProfile or any wrapper of them. There every
// phase opens as a step, bound to the trace span that reports its seconds
// and dollars, so no execution phase is invisible to query traces and no
// span's figures drift from the phase table. Everywhere else in the package
// a phase is metered through the step that opened it, never re-opened by
// name.
var Spanphase = &analysis.Analyzer{
	Name: "spanphase",
	Doc: "only internal/engine/step.go may open a cloudsim phase, each as a step " +
		"bound to its trace span, so no execution phase is invisible to query traces",
	InScope: scopeOf(pkgEngine),
	Run:     runSpanphase,
}

func runSpanphase(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Package).Filename) == stepFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if t := pass.Info.TypeOf(call); t != nil && isPhasePtr(t) {
					pass.Reportf(call.Pos(),
						"cloudsim phase opened outside %s: open it as a step there, bound to the span that reports it, and meter through that step", stepFile)
				}
			}
			return true
		})
	}
	return nil
}
