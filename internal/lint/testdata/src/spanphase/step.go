package spanphase

import "pushdowndb/internal/cloudsim"

// step.go is where phases open: nothing here is flagged.

type step struct{ *cloudsim.Phase }

func openPhase(m *cloudsim.Metrics, name string) *cloudsim.Phase { return m.Phase(name, 0) }

func newStep(m *cloudsim.Metrics, name string) step { return step{openPhase(m, name)} }
