//go:build race

package main

// raceEnabled reports a race-detector build, which runs the server
// several times slower than the fixed rates assume.
const raceEnabled = true
