//go:build race

package core

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a random share of Puts, so pooled scratch is sometimes made fresh.
const raceEnabled = true
