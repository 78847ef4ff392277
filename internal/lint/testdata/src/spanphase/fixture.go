// Fixture for the spanphase analyzer: outside step.go every call whose
// result is a *cloudsim.Phase is a phase open, flagged whether or not a span
// is in scope, through a wrapper or directly, and counter-only re-opens by
// name too; metering through a step is not an open.
package spanphase

import (
	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/obs"
)

// A span in scope does not make an open outside step.go legal.
func openedBesideASpan(tr *obs.Trace, m *cloudsim.Metrics) {
	sp := tr.Root().Child("scan")
	phase := m.Phase("fixture scan", 0) // want `cloudsim phase opened outside step\.go`
	phase.AddGetRequest(1)
	sp.End()
}

// A by-name re-open to meter row work is an open.
func reopenedByName(m *cloudsim.Metrics) {
	m.Phase("fixture scan", 0).AddServerRows(10) // want `cloudsim phase opened outside step\.go`
}

// Calling step.go's own opener is an open too: its result is the phase.
func throughTheHelper(m *cloudsim.Metrics) {
	openPhase(m, "fixture helper").AddGetRequest(1) // want `cloudsim phase opened outside step\.go`
}

// Metering through a step opened in step.go opens nothing.
func meteredOnAStep(m *cloudsim.Metrics) {
	newStep(m, "fixture scan").AddServerRows(10)
}

// The documented suppression escape.
func suppressed(m *cloudsim.Metrics) {
	//lint:ignore spanphase fixture: counter-only catalog accounting, never user-visible
	m.Phase("fixture catalog", 0).AddServerRows(1)
}
