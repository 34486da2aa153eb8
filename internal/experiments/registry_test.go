package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestRegistry pins the shape every consumer of the registry relies on: IDs
// are unique and in ascending numeric order (nwbench prints, and the index
// documents, in that order), every entry has a summary and a full run, and
// every artifact entry has a quick run — CI records artifacts with
// `nwbench -quick -json`, so an artifact without one would silently vanish
// from the fresh directory, which scripts/benchcmp reports only as a skip.
func TestRegistry(t *testing.T) {
	if len(Registry) == 0 {
		t.Fatal("empty registry")
	}
	prev := 0
	for _, e := range Registry {
		n, err := strconv.Atoi(strings.TrimPrefix(e.ID, "E"))
		if !strings.HasPrefix(e.ID, "E") || err != nil || n <= 0 {
			t.Errorf("ID %q is not E<positive number>", e.ID)
			continue
		}
		if n <= prev {
			t.Errorf("ID %s follows E%d: IDs must be unique and ascending", e.ID, prev)
		}
		prev = n
		if strings.TrimSpace(e.Summary) == "" {
			t.Errorf("%s has no summary", e.ID)
		}
		if e.Run == nil {
			t.Errorf("%s has no full run", e.ID)
		}
		if e.Artifact && e.Quick == nil {
			t.Errorf("%s records a BENCH_%s.json artifact but has no quick run", e.ID, e.ID)
		}
	}
}
