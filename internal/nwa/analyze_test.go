package nwa

import (
	"testing"

	"repro/internal/alphabet"
)

func TestReachableStates(t *testing.T) {
	alpha := alphabet.New("a", "b")
	// 0 -a-> 1 (internal); 1 -a-> (2, hier 3) (call); 2 -b/3-> 4 (return);
	// 5 is unreachable; 3 is hierarchical-only.
	n := NewNNWA(alpha, 6)
	n.AddStart(0).AddAccept(4)
	n.AddInternal(0, "a", 1)
	n.AddCall(1, "a", 2, 3)
	n.AddReturn(2, 3, "b", 4)
	n.AddInternal(5, "b", 5)

	reach := ReachableStates(n)
	want := []bool{true, true, true, false, true, false}
	for q, w := range want {
		if reach[q] != w {
			t.Errorf("ReachableStates[%d] = %v, want %v", q, reach[q], w)
		}
	}

	hier := HierarchicalTargets(n, reach)
	if !hier[3] {
		t.Errorf("HierarchicalTargets[3] = false, want true (call edge from reachable state 1)")
	}
	if hier[5] {
		t.Errorf("HierarchicalTargets[5] = true, want false")
	}
}

func TestCoaccessibleStates(t *testing.T) {
	alpha := alphabet.New("a", "b")
	n := NewNNWA(alpha, 6)
	n.AddStart(0).AddAccept(4)
	n.AddInternal(0, "a", 1)
	n.AddCall(1, "a", 2, 3)
	n.AddReturn(2, 3, "b", 4)
	n.AddInternal(5, "b", 5)

	reach := ReachableStates(n)
	hierOK := HierarchicalTargets(n, reach)
	hierOK[0] = true // start state, for pending returns
	co := CoaccessibleStates(n, hierOK)
	// 4 is accepting (trivially coaccessible); 0 and 1 reach it; 2 reaches
	// it over the return edge gated on hierarchical state 3, which a call
	// from reachable state 1 supplies; 5 loops on itself and never reaches
	// 4.
	if !co[0] || !co[1] || !co[2] || !co[4] {
		t.Errorf("CoaccessibleStates = %v; want 0,1,2,4 coaccessible", co)
	}
	if co[5] {
		t.Errorf("CoaccessibleStates[5] = true, want false (isolated self-loop)")
	}

	// With the return's hierarchical component unavailable, state 2 loses
	// its only path to acceptance.
	none := make([]bool, n.NumStates())
	co = CoaccessibleStates(n, none)
	if co[2] {
		t.Errorf("CoaccessibleStates[2] = true with no hierarchical states available, want false")
	}
}
