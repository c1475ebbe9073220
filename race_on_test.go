//go:build race

package spatialtf_test

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true
