//go:build race

package router

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so exact allocation pins are skipped under it.
const raceEnabled = true
