package lint

import (
	"go/ast"

	"pushdowndb/internal/lint/analysis"
)

// meteredOps are the s3api.Backend storage operations whose cost the
// cloudsim model prices. List is deliberately exempt: partition listings
// are the engine's own catalog traffic, never billed to a query (the paper
// pre-resolves the partition layout), and Capabilities/Profile are local
// metadata. Put is dataset preparation (loaders, index builds), also
// outside every query's virtual clock.
var meteredOps = map[string]bool{
	"Get":       true,
	"GetRange":  true,
	"GetRanges": true,
	"Select":    true,
	"Size":      true,
}

// Metered requires every priced s3api.Backend call in the engine and index
// layers to happen with an open *cloudsim.Phase in the enclosing function
// — the hook through which the operation's requests and bytes enter the
// cost model. An S3 op issued with no phase in scope cannot have been
// metered, so planner estimates and the paper figures silently drift from
// what the engine actually did.
//
// The check is lexical: a *cloudsim.Phase parameter or local declared
// before the call (in the function or any enclosing one) satisfies it, and
// so does a step — a struct holding one, the engine's span-bound phase.
// DB-level catalog reads that are documented as unmetered carry a
// //lint:ignore metered suppression saying so. The layers of a backend's
// select pipeline (rescache, scanshare) are out of scope, like s3api's own
// decorators: they forward a Select and stamp how it was served; the engine
// call that entered the pipeline is the one that must be metered.
var Metered = &analysis.Analyzer{
	Name: "metered",
	Doc: "require an open *cloudsim.Phase around every priced s3api.Backend call " +
		"in engine/index so no S3 operation escapes the cost model",
	InScope: scopeOf(pkgEngine, pkgIndex, pkgVec),
	Run:     runMetered,
}

func runMetered(pass *analysis.Pass) error {
	walk(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name, ok := backendMethod(pass.Info, call)
		if !ok || !meteredOps[name] {
			return
		}
		if phaseVisible(pass.Info, enclosingFuncs(stack), call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(),
			"s3api.Backend.%s with no *cloudsim.Phase open in the enclosing function: this S3 operation escapes the cost model (run it on a step, or suppress a documented catalog read)",
			name)
	})
	return nil
}
