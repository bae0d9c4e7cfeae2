//go:build !race

package live_test

const raceEnabled = false
