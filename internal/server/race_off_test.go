//go:build !race

package server

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation allocates and drops pooled objects at random.
const raceEnabled = false
