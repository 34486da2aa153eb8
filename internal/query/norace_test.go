//go:build !race

package query_test

// raceEnabled reports that the test binary runs under the race detector,
// which slows the vet of the planned batch-reload bundle beyond a useful
// test budget.
const raceEnabled = false
