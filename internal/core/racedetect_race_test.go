//go:build race

package core_test

// raceEnabled reports a build with the race detector, whose shadow memory
// and instrumentation distort heap measurements.
const raceEnabled = true
