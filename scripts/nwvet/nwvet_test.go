package main

import (
	"fmt"
	"strings"
	"testing"
)

// collect loads one fixture directory and runs an analyzer over every unit
// in it, returning the violation lines.
func collect(t *testing.T, dir string, run func(*unit, reportFunc)) []string {
	t.Helper()
	return collectAll(t, dir, func(units []*unit, report reportFunc) {
		for _, u := range units {
			run(u, report)
		}
	})
}

// collectAll loads one fixture directory and runs a whole-walk analyzer
// over its units, returning the violation lines.
func collectAll(t *testing.T, dir string, run func([]*unit, reportFunc)) []string {
	t.Helper()
	units, err := loadUnits(dir)
	if err != nil {
		t.Fatalf("loadUnits(%s): %v", dir, err)
	}
	if len(units) == 0 {
		t.Fatalf("loadUnits(%s): no Go files found", dir)
	}
	var got []string
	run(units, func(format string, args ...any) {
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
// another type's method of the same name, and an oracle annotation must
// name its test.
func TestExportDisciplineSeededViolations(t *testing.T) {
	got := collectAll(t, "testdata/export_bad", analyzeExportDiscipline)
	wantFindings(t, got, []string{
		"export-discipline: svc.OnlyTested has no caller outside its package",
		"export-discipline: svc.Hidden has no caller outside its package",
		"export-discipline: svc.Result.Size has no caller outside its package",
		"export-discipline: svc.Bare: //nwvet:oracle must name the test that uses it",
	})
}

// TestExportDisciplineCleanFixture: a caller in a sibling module, the
// signature and field-type cascade, an enum's constants, a method the
// standard library calls, a method reached only through a passing
// interface and a named oracle all pass.
func TestExportDisciplineCleanFixture(t *testing.T) {
	if got := collectAll(t, "testdata/export_clean", analyzeExportDiscipline); len(got) != 0 {
		t.Errorf("clean export fixture flagged:\n%s", strings.Join(got, "\n"))
	}
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
