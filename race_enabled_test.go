//go:build race

package gameauthority_test

// raceEnabled reports a -race build. The race detector drops sync.Pool
// items at random, so an allocation count that relies on pooled scratch
// is not a count of the program's own allocations under it.
const raceEnabled = true
