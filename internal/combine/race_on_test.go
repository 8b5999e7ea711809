//go:build race

package combine

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
