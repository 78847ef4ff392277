//go:build race

// Package race reports whether the build has the race detector on, for
// the tests that pin allocation counts: the detector instruments
// allocation, so testing.AllocsPerRun counts differently under it and
// those tests skip.
package race

// Enabled is true when the program was built with -race.
const Enabled = true
