//go:build race

package dsms

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random share of Puts, so allocation pins on pooled paths cannot hold.
const raceEnabled = true
