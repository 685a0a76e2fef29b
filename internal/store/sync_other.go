//go:build !linux || !(amd64 || arm64)

package store

// syncFilesystem reports that no filesystem-wide sync barrier is
// available on this platform; the store fsyncs each session file instead.
func syncFilesystem(uintptr) (bool, error) { return false, nil }
