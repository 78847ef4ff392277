package lint

import (
	"testing"

	"pushdowndb/internal/lint/linttest"
)

// Each analyzer runs against its fixture package under testdata/src/ (a
// location `go list ./...` never expands, so the fixtures stay out of the
// build and out of pushdownlint's own sweep). The want-comments pin both
// the findings and the suppression convention.

func TestCtxflow(t *testing.T)        { linttest.Run(t, Ctxflow, "testdata/src/ctxflow") }
func TestErrkind(t *testing.T)        { linttest.Run(t, Errkind, "testdata/src/errkind") }
func TestMapDeterminism(t *testing.T) { linttest.Run(t, MapDeterminism, "testdata/src/mapdet") }
func TestExactAgg(t *testing.T)       { linttest.Run(t, ExactAgg, "testdata/src/exactagg") }

// The expr fixture type-checks as pushdowndb/internal/expr, exercising
// exactagg's stricter expr-layer rule (all float accumulation banned).
func TestExactAggExprLayer(t *testing.T) { linttest.Run(t, ExactAgg, "testdata/src/expr") }
