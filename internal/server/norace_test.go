//go:build !race

package server

// raceEnabled reports a -race build.
const raceEnabled = false
