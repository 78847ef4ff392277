package lint

import (
	"go/ast"

	"pushdowndb/internal/lint/analysis"
)

// ExactAgg guards the exact-aggregation discipline (PR 2): merge results
// must not depend on the order partial results arrive in, which rules
// float64 accumulation out of two places.
//
// First, the expr package entirely: aggregation state (expr.AggState) sums
// exactly — error-free two-sums into a float64 expansion, math/big.Float
// at fixed precision past it — so that merge order cannot perturb the
// final digits. Any float32/float64 accumulation introduced there reopens
// the hole, so inside pkgExpr every float accumulation is a finding.
//
// Second, anywhere in scope: accumulating a float into a variable
// captured from an enclosing scope, from inside a closure that runs
// concurrently (launched with `go`, or handed to another function as a
// callback — worker pools like forEachPart run those on many goroutines).
// Such sums add in completion order, which varies run to run. Accumulate
// into a per-worker slot instead and fold the slots in index order after
// the barrier.
var ExactAgg = &analysis.Analyzer{
	Name: "exactagg",
	Doc: "no float accumulation in expr's exact-aggregation layer, and no float " +
		"accumulation into captured variables from concurrently-run closures — " +
		"merge order must not perturb results",
	InScope: scopeOf(pkgExpr, pkgEngine, pkgHarness, pkgVec),
	Run:     runExactAgg,
}

func runExactAgg(pass *analysis.Pass) error {
	inExpr := pass.Pkg.Path() == pkgExpr
	walk(pass.Files, func(n ast.Node, stack []ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		lhs, acc := accumulatesInto(as)
		if !acc {
			return
		}
		t := pass.Info.Types[lhs].Type
		if t == nil || !isFloat(t) {
			return
		}
		if inExpr {
			pass.Reportf(as.Pos(),
				"float accumulation in the exact-aggregation layer; sum through big.Float (AggState) so merge order cannot perturb results")
			return
		}
		lit, how := concurrentClosure(stack)
		if lit == nil {
			return
		}
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		obj := pass.Info.Uses[root]
		if obj == nil {
			obj = pass.Info.Defs[root]
		}
		if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			return // accumulator is local to the closure: per-worker, fine
		}
		pass.Reportf(as.Pos(),
			"float accumulation into captured %q from a closure %s sums in completion order, which varies run to run; accumulate per worker and merge in index order",
			root.Name, how)
	})
	return nil
}

// concurrentClosure returns the innermost enclosing FuncLit when that
// closure may run concurrently with its definer: launched by a go
// statement, or passed to another function as an argument.
func concurrentClosure(stack []ast.Node) (*ast.FuncLit, string) {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		// How is this literal used? Look at its parents.
		for j := i - 1; j >= 0; j-- {
			switch p := stack[j].(type) {
			case *ast.CallExpr:
				for _, arg := range p.Args {
					if unparen(arg) == lit {
						return lit, "passed as a callback"
					}
				}
				if k := j - 1; k >= 0 {
					if _, isGo := stack[k].(*ast.GoStmt); isGo && unparen(p.Fun) == lit {
						return lit, "launched with go"
					}
				}
				return nil, ""
			case *ast.ParenExpr:
				continue
			default:
				return nil, ""
			}
		}
		return nil, ""
	}
	return nil, ""
}
