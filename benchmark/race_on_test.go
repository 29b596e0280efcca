//go:build race

package main

// raceEnabled tells the smoke test that the race detector's slowdown
// applies to its time budget.
const raceEnabled = true
