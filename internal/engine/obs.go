package engine

import (
	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/obs"
)

// Span plumbing: the engine starts obs spans at its existing cloudsim
// phase boundaries. Every helper short-circuits on e.trace == nil, so an
// untraced execution pays one pointer check per site and allocates
// nothing. Scan-level spans are passed explicitly into the partition
// fan-outs (per-partition children hang off them); the statement-level
// parent for sequential code is carried in spanParent under spanMu.

// Trace returns the obs trace this execution runs under (nil when the
// caller attached none via obs.WithTrace).
func (e *Exec) Trace() *obs.Trace { return e.trace }

// curSpanParent returns the span new sibling spans should attach to: the
// innermost parent installed by setSpanParent, or the trace root.
func (e *Exec) curSpanParent() *obs.Span {
	if e.trace == nil {
		return nil
	}
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	if e.spanParent != nil {
		return e.spanParent
	}
	return e.trace.Root()
}

// beginSpan starts a child of the current parent span.
func (e *Exec) beginSpan(name string) *obs.Span {
	if e.trace == nil {
		return nil
	}
	return e.curSpanParent().Child(name)
}

// setSpanParent installs sp as the parent of subsequently begun spans and
// returns the previous parent; restore it with restoreSpanParent when the
// enclosing scope ends.
func (e *Exec) setSpanParent(sp *obs.Span) *obs.Span {
	if e.trace == nil {
		return nil
	}
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	prev := e.spanParent
	e.spanParent = sp
	return prev
}

func (e *Exec) restoreSpanParent(prev *obs.Span) {
	if e.trace == nil {
		return
	}
	e.spanMu.Lock()
	e.spanParent = prev
	e.spanMu.Unlock()
}

// endPhaseSpan stamps the phase's simulated seconds and billed storage
// cost onto sp and ends it — the bridge between a span's wall-clock view
// and the cloudsim roofline view of the same work. A nil phase (work that
// turned out to cost nothing) stamps nothing.
func (e *Exec) endPhaseSpan(sp *obs.Span, ph *cloudsim.Phase) {
	if sp != nil && ph != nil {
		sp.SetFloat("sim_sec", ph.Seconds())
		sp.SetFloat("cost_usd", ph.BilledCost(e.db.Pricing).Total())
	}
	sp.End()
}

// endSpanErr ends sp, recording err when the work failed.
func endSpanErr(sp *obs.Span, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.SetStr("error", err.Error())
	}
	sp.End()
}

// opSpan starts a span for one local operator dispatch, recording the
// input cardinality and whether the vectorized or the row path ran.
func (e *Exec) opSpan(name string, rowsIn int) *obs.Span {
	if e.trace == nil {
		return nil
	}
	sp := e.beginSpan(name)
	sp.SetInt("rows_in", int64(rowsIn))
	if e.db.vectorized {
		sp.SetStr("path", "vec")
	} else {
		sp.SetStr("path", "row")
	}
	return sp
}

// endOpSpan ends an operator span with its output cardinality.
func endOpSpan(sp *obs.Span, out *Relation, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.SetStr("error", err.Error())
	} else if out != nil {
		sp.SetInt("rows_out", int64(len(out.Rows)))
	}
	sp.End()
}
