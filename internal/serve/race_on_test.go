//go:build race

package serve

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so exact allocation pins are skipped under it.
const raceEnabled = true
