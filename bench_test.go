// Package repro's root test file hosts the benchmark harness: one
// sub-benchmark per experiments.Registry entry (E1..E28, excluding E18,
// folded into E17/E19, and E26, retired — see docs/EXPERIMENTS.md).  Each
// sub-benchmark recomputes its experiment's table on every iteration, so
// `go test -bench=. -benchmem` both times the reproduction and regenerates
// the numbers; run `go run ./cmd/nwbench` to print the tables themselves.
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

// TestExperimentsSanity runs the smaller experiments once and checks the
// headline facts the paper claims: exponential gaps where promised,
// agreement columns at 100%, and claimed automaton properties.  It is the
// integration test gluing every package together.
func TestExperimentsSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite takes a few seconds")
	}
	e4 := experiments.E04NWAvsDFA(8)
	for _, row := range e4.Rows {
		var s, nwaStates, dfaStates, pow int
		fmt.Sscanf(row[0], "%d", &s)
		fmt.Sscanf(row[1], "%d", &nwaStates)
		fmt.Sscanf(row[2], "%d", &dfaStates)
		fmt.Sscanf(row[3], "%d", &pow)
		if dfaStates < pow {
			t.Errorf("E4 s=%d: minimal DFA %d below the 2^s bound %d", s, dfaStates, pow)
		}
		if nwaStates > 3*s+10 {
			t.Errorf("E4 s=%d: NWA has %d states, not O(s)", s, nwaStates)
		}
	}
	e6 := experiments.E06FlatVsBottomUp(6)
	for _, row := range e6.Rows {
		if row[2] != row[3] {
			t.Errorf("E6: expected %s congruence classes, measured %s", row[3], row[2])
		}
	}
	e9 := experiments.E09PathSuccinctness(8)
	for _, row := range e9.Rows {
		var s, nwaStates, topDown, bottomUp, pow int
		fmt.Sscanf(row[0], "%d", &s)
		fmt.Sscanf(row[1], "%d", &nwaStates)
		fmt.Sscanf(row[2], "%d", &topDown)
		fmt.Sscanf(row[3], "%d", &bottomUp)
		fmt.Sscanf(row[4], "%d", &pow)
		if topDown < pow && bottomUp < pow {
			t.Errorf("E9 s=%d: neither tree-automaton view reaches the 2^s bound (%d, %d)", s, topDown, bottomUp)
		}
		if nwaStates > 3*s+12 {
			t.Errorf("E9 s=%d: NWA has %d states, not O(s)", s, nwaStates)
		}
	}
	for _, tbl := range []experiments.Table{
		experiments.E02WeakConversion(),
		experiments.E05BottomUpConversion(),
		experiments.E08JoinlessConversion(),
		experiments.E17Determinization(),
	} {
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("%s: agreement column is %q for row %v", tbl.Name, row[len(row)-1], row)
			}
		}
	}
	e15 := experiments.E15MembershipNPReduction()
	for _, row := range e15.Rows {
		if row[1] != row[3] {
			t.Errorf("E15: reduction disagreed with DPLL on row %v", row)
		}
	}
	e13 := experiments.E13PTAEmbedding()
	for _, row := range e13.Rows {
		if row[1] != row[2] || row[1] != row[3] {
			t.Errorf("E13: PTA/PNWA verdicts diverge from the language on row %v", row)
		}
	}
	e14 := experiments.E14CountingSeparation(5)
	for _, row := range e14.Rows {
		if row[3] != row[4] {
			t.Errorf("E14: PNWA verdict differs from the counting predicate on row %v", row)
		}
	}
	e21 := experiments.E21MultiQueryStreaming(100000, 32)
	for _, row := range e21.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E21: engine verdicts diverge from serial re-scans on row %v", row)
		}
	}
	e22 := experiments.E22CompiledVsMap(100000, 32)
	for _, row := range e22.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E22: compiled verdicts diverge from map-backed runners on row %v", row)
		}
	}
	e23 := experiments.E23ShardedServing(60, 1000)
	for _, row := range e23.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E23: pool or naive fan-out verdicts diverge from serial on row %v", row)
		}
	}
	e25 := experiments.E25ColdStart(16)
	if len(e25.Rows) == 0 {
		t.Error("E25 produced no rows")
	}
	for _, row := range e25.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E25: bundle-loaded verdicts diverge from freshly compiled queries on row %v", row)
		}
	}
	e27 := experiments.E27AdapterThroughput(20000)
	if len(e27.Rows) != 4 {
		t.Errorf("E27 produced %d rows, want native + one per adapter format", len(e27.Rows))
	}
	for _, row := range e27.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E27: adapter stream diverges from its render+retokenize image on row %v", row)
		}
	}
	e28 := experiments.E28ProductCompilation(60000)
	if len(e28.Rows) != 4 {
		t.Errorf("E28 produced %d rows, want one per query count", len(e28.Rows))
	}
	for _, row := range e28.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E28: product or planner verdicts diverge from the serial oracle on row %v", row)
		}
	}
	if len(e28.Rows) == 4 {
		last := e28.Rows[3]
		if last[1] != "0" {
			t.Errorf("E28: the forced 16-query product compiled %s states; the default budget should reject it", last[1])
		}
		if last[2] == "0" {
			t.Error("E28: the planner formed no product groups at 16 queries")
		}
	}
}
