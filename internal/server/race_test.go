//go:build race

package server

// raceEnabled reports that the test binary runs under the race detector,
// whose sync.Pool drops a random share of Puts, so recycled buffers cannot
// be counted on.
const raceEnabled = true
