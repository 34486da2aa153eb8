package experiments

import (
	"fmt"
	"testing"
)

// TestExperimentsSanity runs the smaller experiments once and checks the
// headline facts the paper claims: exponential gaps where promised,
// agreement columns at 100%, and claimed automaton properties.  It is the
// integration test gluing every package together.
func TestExperimentsSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite takes a few seconds")
	}
	e4 := e04NWAvsDFA(8)
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
	e6 := e06FlatVsBottomUp(6)
	for _, row := range e6.Rows {
		if row[2] != row[3] {
			t.Errorf("E6: expected %s congruence classes, measured %s", row[3], row[2])
		}
	}
	e9 := e09PathSuccinctness(8)
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
	// E2, E5, E8 and E17: the agreement column, each row's count within its
	// printed bound, and the property column where the table has one.
	for _, c := range []struct {
		tbl              Table
		count, bound     int // column indices
		property         int // -1 when the table has none
		linear, linBound int // E17's linear states; -1 elsewhere
	}{
		{e02WeakConversion(), 2, 3, 4, -1, -1},
		{e05BottomUpConversion(), 2, 3, 4, -1, -1},
		{e08JoinlessConversion(), 1, 2, -1, -1, -1},
		{e17Determinization(), 1, 2, -1, 3, 4},
	} {
		for _, row := range c.tbl.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("%s: agreement column is %q for row %v", c.tbl.Name, row[len(row)-1], row)
			}
			if cellAbove(row, c.count, c.bound) {
				t.Errorf("%s: %s %s exceeds the bound %s in row %v", c.tbl.Name, c.tbl.Header[c.count], row[c.count], row[c.bound], row)
			}
			if c.linear >= 0 && cellAbove(row, c.linear, c.linBound) {
				t.Errorf("%s: %s %s exceeds the bound %s in row %v", c.tbl.Name, c.tbl.Header[c.linear], row[c.linear], row[c.linBound], row)
			}
			if c.property >= 0 && row[c.property] != "true" {
				t.Errorf("%s: %s is %q in row %v", c.tbl.Name, c.tbl.Header[c.property], row[c.property], row)
			}
		}
	}
	e15 := e15MembershipNPReduction()
	for _, row := range e15.Rows {
		if row[1] != row[3] {
			t.Errorf("E15: reduction disagreed with DPLL on row %v", row)
		}
	}
	e13 := e13PTAEmbedding()
	for _, row := range e13.Rows {
		if row[1] != row[2] || row[1] != row[3] {
			t.Errorf("E13: PTA/PNWA verdicts diverge from the language on row %v", row)
		}
	}
	e14 := e14CountingSeparation(5)
	for _, row := range e14.Rows {
		if row[3] != row[4] {
			t.Errorf("E14: PNWA verdict differs from the counting predicate on row %v", row)
		}
	}
	e21 := e21MultiQueryStreaming(100000, 32)
	for _, row := range e21.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E21: engine verdicts diverge from serial re-scans on row %v", row)
		}
	}
	e22 := e22CompiledVsMap(100000, 32)
	for _, row := range e22.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E22: compiled verdicts diverge from map-backed runners on row %v", row)
		}
	}
	e23 := e23ShardedServing(60, 1000)
	for _, row := range e23.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E23: pool or naive fan-out verdicts diverge from serial on row %v", row)
		}
	}
	e25 := e25ColdStart(16)
	if len(e25.Rows) == 0 {
		t.Error("E25 produced no rows")
	}
	for _, row := range e25.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E25: bundle-loaded verdicts diverge from freshly compiled queries on row %v", row)
		}
	}
	e27 := e27AdapterThroughput(20000)
	if len(e27.Rows) != 4 {
		t.Errorf("E27 produced %d rows, want native + one per adapter format", len(e27.Rows))
	}
	for _, row := range e27.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E27: adapter stream diverges from its render+retokenize image on row %v", row)
		}
	}
	e28 := e28ProductCompilation(60000)
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

// cellAbove reports whether row[count] exceeds row[bound], both read as
// numbers (E5 prints its bound in %g form); a cell that does not parse
// counts as above.
func cellAbove(row []string, count, bound int) bool {
	var n, b float64
	if _, err := fmt.Sscan(row[count], &n); err != nil {
		return true
	}
	if _, err := fmt.Sscan(row[bound], &b); err != nil {
		return true
	}
	return n > b
}
