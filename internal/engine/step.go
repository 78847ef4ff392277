package engine

import (
	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/obs"
)

// Metered steps and trace scopes. A step is a span bound to the phase it
// meters, opened by cloudsim.Metrics.Open: the span reports the phase's
// seconds and dollars as they stand when the trace is snapshotted, so work
// metered after the span ended, or by a second span on the phase, is never
// missing from it. A step's phase is what a priced storage call takes
// (s3api.Metered). A scope is a structural span installed as the parent of
// the spans begun inside it. Untraced, every span is nil: a step allocates
// only its phase.

// Trace returns the obs trace this execution runs under (nil when the
// caller attached none via obs.WithTrace).
func (e *Exec) Trace() *obs.Trace { return e.trace }

// parent returns the span new spans attach to: the innermost scope's, or
// the trace root.
func (e *Exec) parent() *obs.Span {
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

// step is the span sp bound to the phase it meters; metering calls go to
// the embedded phase.
type step struct {
	*cloudsim.Phase
	sp *obs.Span
}

// step begins the span named span under the current parent, then opens the
// phase (phase, stage) bound to it, priced under table's backend profile —
// the base profile for compute work, table "".
func (e *Exec) step(span, phase string, stage int, table string) step {
	st := step{sp: e.parent().Child(span)}
	st.open(e, phase, stage, table)
	return st
}

// open opens the phase of a step begun as a bare span, once it has work to
// meter (a catalog read may find nothing to pay for).
func (st *step) open(e *Exec, phase string, stage int, table string) {
	var profile cloudsim.Profile
	if table != "" {
		profile = e.db.store(table).Profile()
	}
	st.Phase = e.Metrics.Open(st.sp, phase, stage, profile, e.db.Pricing)
}

// end ends the step's span, recording err; the phase stays open to metering.
func (st step) end(err error) { st.sp.EndErr(err) }

// scope is a span installed as the parent until end restores prev.
type scope struct {
	e        *Exec
	sp, prev *obs.Span
}

// scope begins the span name under the current parent and installs it.
func (e *Exec) scope(name string) scope { return e.enter(e.parent().Child(name)) }

// enter installs an open span as the parent (the local tail's operators
// nest under its step's span).
func (e *Exec) enter(sp *obs.Span) scope {
	if sp == nil {
		return scope{}
	}
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	s := scope{e: e, sp: sp, prev: e.spanParent}
	e.spanParent = sp
	return s
}

// end restores the parent the scope replaced and ends its span, recording err.
func (s scope) end(err error) {
	if s.sp == nil {
		return
	}
	s.e.spanMu.Lock()
	s.e.spanParent = s.prev
	s.e.spanMu.Unlock()
	s.sp.EndErr(err)
}
