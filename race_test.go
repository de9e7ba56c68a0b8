//go:build race

package macaw_test

// raceEnabled reports a build with the race detector, whose instrumentation
// allocates shadow memory per heap object.
const raceEnabled = true
