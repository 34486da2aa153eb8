package query_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// TestVetReportsPinned holds the verifier's output to reports recorded
// before its analysis moved onto integer symbol IDs: the full VetReport of
// every accepted golden fixture, and the per-query reachability figures of
// the planned batch-reload bundle, whose third product carries 111
// unreachable states.  A change to the summary closure that finds one state
// more or less fails here.
func TestVetReportsPinned(t *testing.T) {
	clean := func(name string, states, reachable int) query.VetQueryStats {
		return query.VetQueryStats{Name: name, Form: "dnwa", States: states, Reachable: reachable}
	}
	for _, c := range []struct {
		file string
		want query.VetReport
	}{
		{"golden_bundle_factored.nwq", query.VetReport{
			Container: query.VetContainer{
				ContentHash: "c61e564b8462db30f5e527aa9e6b318021e3d700912e2b04ea09ba589ff58dbd"},
			Queries: []query.VetQueryStats{clean("well-formed", 7, 2), clean("//a//b", 7, 3), clean("//b//a", 7, 3)},
		}},
		{"golden_planned_factored.nwq", query.VetReport{
			Container: query.VetContainer{
				ContentHash: "3cc6f84287bd66799d4734a548bf219048d042bd1509579c25934956999c5244"},
			Queries: []query.VetQueryStats{
				{Name: "group 1", Form: "product-dnwa", States: 7, Reachable: 6, DeadTransitions: 12},
				clean("well-formed", 7, 2),
			},
			Issues: []query.VetIssue{{Query: "group 1", Level: "warning", Msg: "12 dead transitions can never fire"}},
		}},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := query.VetBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !reflect.DeepEqual(*rep, c.want) {
			t.Errorf("%s: report\n%#v\nwant\n%#v", c.file, *rep, c.want)
		}
	}

	if raceEnabled {
		t.Skip("the planned batch-reload bundle's vet takes too long under the race detector")
	}
	planned, _, err := plan.Bundle(batchShape(t), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := query.VetBytes(planned.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	type figures struct {
		name            string
		reachable       int
		unreachable     []int
		deadTransitions int
		nonCoaccessible int
	}
	want := []figures{
		{"group 1", 256, nil, 4096, -1},
		{"group 2", 256, nil, 4096, -1},
		{"group 3", 64, []int{
			8, 9, 10, 14, 15, 16, 20, 21, 22, 25, 26, 29, 30, 31, 32, 33, 34, 37, 38, 39,
			40, 41, 42, 43, 44, 45, 46, 51, 52, 53, 57, 58, 62, 71, 72, 73, 74, 79, 80, 81,
			82, 83, 84, 85, 86, 90, 91, 92, 93, 94, 95, 96, 97, 98, 108, 109, 110, 118, 119, 122,
			123, 125, 126, 132, 134, 135, 136, 137, 141, 142, 143, 144, 146, 147, 148, 157, 159, 160, 161, 162,
			163, 167, 168, 169, 170, 171, 172, 173, 174, 175, 186, 187, 188, 189, 190, 193, 194, 195, 196, 197,
			198, 199, 209, 210, 212, 213, 214, 215, 222, 223, 224,
		}, 137040, 0},
		{"well-formed", 2, nil, 0, 0},
		{"//a//b", 3, nil, 0, 0},
		{"order a,b,c", 4, nil, 64, 0},
		{"//b//c", 3, nil, 0, 0},
		{"contains c", 2, nil, 32, 0},
		{"//a//b//c", 4, nil, 0, 0},
		{"order c,a", 3, nil, 48, 0},
		{"//c//a", 3, nil, 0, 0},
	}
	if len(rep.Queries) != len(want) {
		t.Fatalf("planned bundle: %d queries vetted, want %d", len(rep.Queries), len(want))
	}
	for i, s := range rep.Queries {
		got := figures{s.Name, s.Reachable, s.Unreachable, s.DeadTransitions, s.NonCoaccessible}
		if w := want[i]; got.name != w.name || got.reachable != w.reachable || !slices.Equal(got.unreachable, w.unreachable) ||
			got.deadTransitions != w.deadTransitions || got.nonCoaccessible != w.nonCoaccessible {
			t.Errorf("planned bundle query %d: %+v, want %+v", i, got, w)
		}
	}
}

// TestVetReportsPinnedWellMatched pins a query whose accepting state only a
// well-matched call–return summary reaches: the call on a from 0 goes to 1
// with hierarchical state 3, b moves 1 to 2 inside the call, and only a
// return from 2 over 3 reaches 4.  A pending return from 2 pops the start
// state and dies, and pending calls reach 1 and 2 alone, so a summary
// closure that skips the internal step or the call–return step misses
// state 4 — which the figures of TestVetReportsPinned cannot see.  The
// four reachable states are 0, 1, 2 and 4: edges into the dead sink do not
// count.
func TestVetReportsPinnedWellMatched(t *testing.T) {
	alpha := alphabet.New("a", "b")
	d := nwa.NewDNWABuilder(alpha, 5).
		Call(0, "a", 1, 3).
		Internal(1, "b", 2).
		Return(2, 3, "a", 4).
		SetAccept(4).
		Build()
	b := query.NewBundle(alpha)
	if err := b.Add("summary-only", query.Compile(d)); err != nil {
		t.Fatal(err)
	}
	rep, err := query.VetBytes(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	want := []query.VetQueryStats{{Name: "summary-only", Form: "dnwa", States: 6, Reachable: 4, NonCoaccessible: 0}}
	if !reflect.DeepEqual(rep.Queries, want) || len(rep.Issues) != 0 {
		t.Errorf("report %#v, issues %v\nwant %#v", rep.Queries, rep.Issues, want)
	}
}
