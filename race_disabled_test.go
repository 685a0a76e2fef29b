//go:build !race

package gameauthority_test

// raceEnabled reports a -race build; see race_enabled_test.go.
const raceEnabled = false
