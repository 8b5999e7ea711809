//go:build !race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
