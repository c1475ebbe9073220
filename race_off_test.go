//go:build !race

package spatialtf_test

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so allocation budgets hold only without
// it.
const raceEnabled = false
