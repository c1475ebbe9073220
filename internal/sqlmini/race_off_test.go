//go:build !race

package sqlmini

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so exact allocation budgets hold only
// without it.
const raceEnabled = false
