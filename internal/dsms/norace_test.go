//go:build !race

package dsms

const raceEnabled = false
