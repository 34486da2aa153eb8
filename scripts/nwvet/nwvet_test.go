package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect loads one fixture directory and runs an analyzer over every unit
// in it, returning the violation lines.
func collect(t *testing.T, dir string, run func(*unit, reportFunc)) []string {
	t.Helper()
	return collectAll(t, dir, func(units []*unit, _ map[string]bool, report reportFunc) {
		for _, u := range units {
			run(u, report)
		}
	})
}

// collectAll loads one fixture directory and runs a whole-walk analyzer
// over its units, returning the violation lines.
func collectAll(t *testing.T, dir string, run func([]*unit, map[string]bool, reportFunc)) []string {
	t.Helper()
	units, tests, err := loadUnits(dir)
	if err != nil {
		t.Fatalf("loadUnits(%s): %v", dir, err)
	}
	if len(units) == 0 {
		t.Fatalf("loadUnits(%s): no Go files found", dir)
	}
	var got []string
	run(units, tests, func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	return got
}

// wantFindings asserts the exact violation count and that every expected
// fragment appears in some finding.
func wantFindings(t *testing.T, got []string, fragments []string) {
	t.Helper()
	if len(got) != len(fragments) {
		t.Errorf("got %d findings, want %d:\n%s", len(got), len(fragments), strings.Join(got, "\n"))
	}
	for _, frag := range fragments {
		found := false
		for _, g := range got {
			if strings.Contains(g, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding mentions %q in:\n%s", frag, strings.Join(got, "\n"))
		}
	}
}

func TestHotpathAllocSeededViolations(t *testing.T) {
	got := collect(t, "testdata/hotpath_bad", analyzeHotpathAlloc)
	wantFindings(t, got, []string{
		"calls make, which allocates",
		"allocates a map literal",
		"allocates a slice literal",
		"heap-allocates an addressed composite literal",
		"allocates a closure",
		"calls fmt.Println",
		"converts to string",
		"converts to a slice type",
		"append result does not feed back into w.buf",
		"assigns into a map",
		"boxes n into interface parameter 0",
	})
	for _, g := range got {
		if !strings.Contains(g, "hotpath-alloc: step ") {
			t.Errorf("finding not attributed to the annotated function: %s", g)
		}
	}
}

func TestHotpathAllocCleanFixture(t *testing.T) {
	if got := collect(t, "testdata/hotpath_clean", analyzeHotpathAlloc); len(got) != 0 {
		t.Errorf("clean hotpath fixture flagged:\n%s", strings.Join(got, "\n"))
	}
}

func TestUnsafeConfinementSeededViolations(t *testing.T) {
	got := collect(t, "testdata/unsafe_bad", func(u *unit, r reportFunc) {
		analyzeUnsafeConfinement(u, false, r)
	})
	wantFindings(t, got, []string{
		"import of unsafe",
		"reflect.SliceHeader",
	})

	// The same file inside the allowed directory is fine.
	allowed := collect(t, "testdata/unsafe_bad", func(u *unit, r reportFunc) {
		analyzeUnsafeConfinement(u, true, r)
	})
	if len(allowed) != 0 {
		t.Errorf("allowed directory still flagged:\n%s", strings.Join(allowed, "\n"))
	}
}

func TestCryptoConfinementSeededViolations(t *testing.T) {
	got := collect(t, "testdata/crypto_bad", func(u *unit, r reportFunc) {
		analyzeCryptoConfinement(u, false, r)
	})
	wantFindings(t, got, []string{
		"crypto-confinement: import of crypto/ed25519",
		"crypto-confinement: import of crypto/sha256",
	})

	// The same file inside an allowed directory is fine.
	allowed := collect(t, "testdata/crypto_bad", func(u *unit, r reportFunc) {
		analyzeCryptoConfinement(u, true, r)
	})
	if len(allowed) != 0 {
		t.Errorf("allowed directory still flagged:\n%s", strings.Join(allowed, "\n"))
	}
}

func TestDSLConfinementSeededViolation(t *testing.T) {
	got := collect(t, "testdata/dsl_bad", func(u *unit, r reportFunc) {
		analyzeDSLConfinement(u, true, r)
	})
	wantFindings(t, got, []string{
		"dsl-confinement: serving hot path imports repro/internal/query/dsl",
	})

	// The same file outside the confined directories is fine.
	outside := collect(t, "testdata/dsl_bad", func(u *unit, r reportFunc) {
		analyzeDSLConfinement(u, false, r)
	})
	if len(outside) != 0 {
		t.Errorf("unconfined directory still flagged:\n%s", strings.Join(outside, "\n"))
	}
}

func TestPlanConfinementSeededViolation(t *testing.T) {
	got := collect(t, "testdata/plan_bad", func(u *unit, r reportFunc) {
		analyzePlanConfinement(u, true, r)
	})
	wantFindings(t, got, []string{
		"plan-confinement: serving stack imports repro/internal/query/plan",
		"plan-confinement: serving stack calls query.CompileProduct",
	})

	// The same file outside the confined directories is fine.
	outside := collect(t, "testdata/plan_bad", func(u *unit, r reportFunc) {
		analyzePlanConfinement(u, false, r)
	})
	if len(outside) != 0 {
		t.Errorf("unconfined directory still flagged:\n%s", strings.Join(outside, "\n"))
	}
}

func TestLockedFieldSeededViolation(t *testing.T) {
	got := collect(t, "testdata/locked_bad", analyzeLockedFields)
	wantFindings(t, got, []string{
		"bad touches p.closed (guarded by mu) without holding the mutex",
	})
}

func TestErrorDisciplineSeededViolation(t *testing.T) {
	got := collect(t, "testdata/errpanic_bad", analyzeErrorDiscipline)
	wantFindings(t, got, []string{
		"decode panics",
	})
}

// TestExportDisciplineSeededViolations: a test is not a caller, a type an
// unexported signature names is not reachable, a method is not called by
// another type's method of the same name, an oracle annotation must name a
// test that a test file declares, and an unexported function or method that
// only tests or dead code reach is dead.
func TestExportDisciplineSeededViolations(t *testing.T) {
	got := collectAll(t, "testdata/export_bad", analyzeExportDiscipline)
	wantFindings(t, got, []string{
		"export-discipline: svc.OnlyTested has no caller outside its package",
		"export-discipline: svc.Hidden has no caller outside its package",
		"export-discipline: svc.Result.Size has no caller outside its package",
		"export-discipline: svc.Bare: //nwvet:oracle must name the test that uses it",
		"export-discipline: svc.Stale: //nwvet:oracle names TestGone, which no test file declares",
		"export-discipline: svc.reference: //nwvet:oracle names TestGone, which no test file declares",
		"export-discipline: svc.helper is reached by no live code",
		"export-discipline: svc.Result.twice is reached by no live code",
		"export-discipline: svc.dead is reached by no live code",
		"export-discipline: svc.deadCallee is reached by no live code",
	})
}

// TestExportDisciplineCleanFixture: a caller in a sibling module, the
// signature and field-type cascade, an enum's constants, a method the
// standard library calls, a method reached only through a passing
// interface and a named oracle all pass; so do an unexported function that
// only a package-level var initializer names, an unexported method that a
// live function calls through an interface, and an unexported oracle whose
// test svc_test.go declares.  Without svc_test.go's declarations both
// oracles cite a test that does not exist.
func TestExportDisciplineCleanFixture(t *testing.T) {
	if got := collectAll(t, "testdata/export_clean", analyzeExportDiscipline); len(got) != 0 {
		t.Errorf("clean export fixture flagged:\n%s", strings.Join(got, "\n"))
	}
	got := collectAll(t, "testdata/export_clean", func(units []*unit, _ map[string]bool, report reportFunc) {
		analyzeExportDiscipline(units, nil, report)
	})
	wantFindings(t, got, []string{
		"export-discipline: svc.Reference: //nwvet:oracle names TestReference, which no test file declares",
		"export-discipline: svc.reference: //nwvet:oracle names TestReference, which no test file declares",
	})
}

// TestCIRunPatternsNameDeclaredTests: a -run or -fuzz pattern token, quoted
// or bare, must prefix-match a declared test or fuzz target, or match one
// exactly when the pattern anchors its end.
func TestCIRunPatternsNameDeclaredTests(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".github", "workflows"), 0o755); err != nil {
		t.Fatal(err)
	}
	workflow := `steps:
  - run: go test -count=1 -run 'TestKept|TestGone' ./...
  - run: go test -run=^TestPrefix$ -v ./internal/...
  - run: go test -run '^TestPrefix|^TestKept$' ./...
  - run: go test -run "Alloc|TestAlsoGone" ./...
  - run: go test -run '^$' -bench . ./...
  - run: go test -run '^$' -fuzz '^FuzzNope$' -fuzztime 1s ./...
`
	if err := os.WriteFile(filepath.Join(root, ".github", "workflows", "ci.yml"), []byte(workflow), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{"TestKept": true, "TestPrefixMatched": true}
	var got []string
	err := lintCIRunPatterns(root, tests, func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFindings(t, got, []string{
		"ci.yml:2: -run pattern names TestGone, which no test file declares",
		"ci.yml:3: -run pattern names TestPrefix, which no test file declares",
		"ci.yml:5: -run pattern names TestAlsoGone, which no test file declares",
		"ci.yml:7: -fuzz pattern names FuzzNope, which no test file declares",
	})
}

// TestCleanFixture runs every analyzer plus the doc checks over the
// known-clean fixture; nothing may fire.
func TestCleanFixture(t *testing.T) {
	got := collect(t, "testdata/clean", func(u *unit, r reportFunc) {
		analyzeHotpathAlloc(u, r)
		analyzeUnsafeConfinement(u, false, r)
		analyzeDSLConfinement(u, true, r)
		analyzePlanConfinement(u, true, r)
		analyzeLockedFields(u, r)
		analyzeErrorDiscipline(u, r)
		checkDocComments(u, r)
	})
	if len(got) != 0 {
		t.Errorf("clean fixture flagged:\n%s", strings.Join(got, "\n"))
	}
}

// TestRepoVetsClean is the self-application gate: the whole repository —
// annotated hot paths, unsafe confinement, guarded fields, decode paths,
// documentation invariants — must pass its own analyzer suite.
func TestRepoVetsClean(t *testing.T) {
	problems, err := runNwvet("../..")
	if err != nil {
		t.Fatalf("runNwvet: %v", err)
	}
	for _, p := range problems {
		t.Errorf("nwvet: %s", p)
	}
}
