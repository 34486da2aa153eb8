// Package repro's root test file hosts the benchmark harness: one
// sub-benchmark per experiments.Registry entry (E1..E28, excluding E18,
// folded into E17/E19, and E26, retired — see docs/EXPERIMENTS.md).  Each
// sub-benchmark recomputes its experiment's table on every iteration, so
// `go test -bench=. -benchmem` both times the reproduction and regenerates
// the numbers; run `go run ./cmd/nwbench` to print the tables themselves.
// The tables' claims are checked by TestExperimentsSanity in
// internal/experiments.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// printOnce prints each experiment table a single time per test binary run,
// so benchmark output stays readable while the rows remain available in the
// log.
var printOnce sync.Map

func report(b *testing.B, t experiments.Table) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(t.Name, true); !loaded {
		fmt.Printf("\n%s\n", t)
	}
}

// BenchmarkExperiments runs one sub-benchmark per experiments.Registry
// entry, at the full parameters `nwbench` uses, so both compute the same
// tables: `go test -run '^$' -bench 'Experiments/E21$' -benchtime=1x .`
// times E21 alone.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report(b, e.Run())
			}
		})
	}
}
