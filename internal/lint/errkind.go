package lint

import (
	"go/ast"
	"go/constant"
	"strings"

	"pushdowndb/internal/lint/analysis"
)

// Errkind requires errors born on backend paths to carry an s3api.Kind.
//
// The server maps *s3api.Error kinds to wire error kinds (not_found and
// friends become "bad_request", context errors become "timeout"/
// "canceled"); anything else falls through to "internal" — a 500 — even
// when the real cause is a missing table the client could fix. So a
// function that talks to an s3api.Backend must not mint errors with a
// naked fmt.Errorf or errors.New: construct an *s3api.Error via
// s3api.NewError, or wrap an already-kinded error with %w (which the
// server unwraps via errors.As).
//
// "Backend path" is any function whose body (including its closures)
// calls an s3api.Backend or s3api.Putter method, or a storage operation of
// the engine's handle on a backend (s3api.Metered). Purely local validation
// helpers are out of scope — their errors never race a storage error to
// the server's classifier.
var Errkind = &analysis.Analyzer{
	Name: "errkind",
	Doc: "errors created in functions that call an s3api.Backend must carry an " +
		"s3api.Kind (s3api.NewError or %w-wrapping a kinded error), not naked fmt.Errorf/errors.New",
	InScope: scopeOf(pkgEngine, pkgIndex, pkgScanshare),
	Run:     runErrkind,
}

func runErrkind(pass *analysis.Pass) error {
	walk(pass.Files, func(n ast.Node, _ []ast.Node) {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
		default:
			return
		}
		if !subtreeCallsBackend(pass, n) {
			return
		}
		for _, ret := range ownReturns(n) {
			for _, res := range ret.Results {
				call, ok := unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				if src, naked := nakedErrorCtor(pass, call); naked {
					pass.Reportf(call.Pos(),
						"%s on a backend path builds an error with no s3api.Kind — the server will report it as \"internal\"; use s3api.NewError or wrap a kinded error with %%w",
						src)
				}
			}
		}
	})
	return nil
}

// subtreeCallsBackend reports whether fn's body (closures included) calls
// any backend method (backendMethod).
func subtreeCallsBackend(pass *analysis.Pass, fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := backendMethod(pass.Info, call); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// nakedErrorCtor reports whether call constructs an unkinded error:
// errors.New, or fmt.Errorf whose format does not wrap with %w.
func nakedErrorCtor(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if calleeIs(pass.Info, call, "errors", "New") {
		return "errors.New", true
	}
	if !calleeIs(pass.Info, call, "fmt", "Errorf") {
		return "", false
	}
	if len(call.Args) > 0 {
		if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			if strings.Contains(constant.StringVal(tv.Value), "%w") {
				return "", false
			}
		}
	}
	return "fmt.Errorf", true
}
