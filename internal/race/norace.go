//go:build !race

package race

// Enabled is true when the program was built with -race.
const Enabled = false
