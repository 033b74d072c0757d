//go:build !race

package comm_test

// raceEnabled reports a -race build.
const raceEnabled = false
