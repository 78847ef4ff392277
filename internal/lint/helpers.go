package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Import paths the analyzers key on. The suite is repo-specific by design:
// the invariants are this module's, not generic Go style.
const (
	pkgPrefix    = "pushdowndb/internal/"
	pkgS3api     = "pushdowndb/internal/s3api"
	pkgCloudsim  = "pushdowndb/internal/cloudsim"
	pkgEngine    = "pushdowndb/internal/engine"
	pkgIndex     = "pushdowndb/internal/index"
	pkgExpr      = "pushdowndb/internal/expr"
	pkgHarness   = "pushdowndb/internal/harness"
	pkgScanshare = "pushdowndb/internal/scanshare"
	pkgVec       = "pushdowndb/internal/vec"
)

// scopeOf builds an InScope predicate admitting exactly the given paths.
func scopeOf(paths ...string) func(string) bool {
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	return func(p string) bool { return set[p] }
}

// walk visits every node of every file, passing the ancestor stack
// (outermost first, n itself last).
func walk(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			fn(n, stack)
			return true
		})
	}
}

// enclosingFuncs returns the stack's function nodes, innermost first.
func enclosingFuncs(stack []ast.Node) []ast.Node {
	var out []ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			out = append(out, stack[i])
		}
	}
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedAs reports whether t — through one pointer — is the named type
// path.name.
func namedAs(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

func isContext(t types.Type) bool { return namedAs(t, "context", "Context") }

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// staticCallee resolves the function object a call statically invokes, or
// nil for calls through function values, builtins and type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeIs reports whether call statically invokes pkgPath.name.
func calleeIs(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := staticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// backendMethod returns the method name when call is a method call on the
// s3api.Backend, s3api.Selector (a backend's select pipeline) or
// s3api.Putter interface, or a storage operation — a method taking a
// context — on the engine's handle on a backend, s3api.Metered.
func backendMethod(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", false
	}
	recv := s.Recv()
	if namedAs(recv, pkgS3api, "Backend") || namedAs(recv, pkgS3api, "Selector") || namedAs(recv, pkgS3api, "Putter") {
		return sel.Sel.Name, true
	}
	if params := s.Type().(*types.Signature).Params(); namedAs(recv, pkgS3api, "Metered") &&
		params.Len() > 0 && isContext(params.At(0).Type()) {
		return sel.Sel.Name, true
	}
	return "", false
}

// ctxParam returns the name of fn's first named context.Context parameter.
func ctxParam(info *types.Info, fn ast.Node) (string, bool) {
	var ft *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	default:
		return "", false
	}
	if ft.Params == nil {
		return "", false
	}
	for _, field := range ft.Params.List {
		for _, n := range field.Names {
			if n.Name == "_" {
				continue
			}
			if obj := info.Defs[n]; obj != nil && isContext(obj.Type()) {
				return n.Name, true
			}
		}
	}
	return "", false
}

// ownReturns collects fn's return statements, excluding those belonging to
// nested function literals.
func ownReturns(fn ast.Node) []*ast.ReturnStmt {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	if body == nil {
		return nil
	}
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch r := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, r)
		}
		return true
	})
	return out
}

// rootIdent returns the base identifier of an lvalue expression
// (x, x.f, x.f[i].g → x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// exprText renders a short expression for structural comparison
// (x = x + y recognition). Good enough for idents and selector chains.
func exprText(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprText(v.X) + "[" + exprText(v.Index) + "]"
	case *ast.BasicLit:
		return v.Value
	case *ast.StarExpr:
		return "*" + exprText(v.X)
	default:
		return "?"
	}
}

// accumulatesInto reports whether the assignment grows its left-hand side
// from its own previous value (x += y, or x = x + y), returning the LHS.
func accumulatesInto(as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	lhs := as.Lhs[0]
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		bin, ok := unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if exprText(bin.X) == exprText(lhs) || exprText(bin.Y) == exprText(lhs) {
				return lhs, true
			}
		}
	}
	return nil, false
}

func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
