//go:build race

package gameauthority_test

// raceEnabled reports a -race build. The race detector's hooks on
// write(2) take the written bytes' address, so under it the frame a File
// append encodes on the stack moves to the heap: one allocation per
// append that a plain build does not pay.
const raceEnabled = true
