package main

import "testing"

// The seeded confinement tests address each row of the confinement table
// by the name of the analyzer it replaced.
var (
	analyzeUnsafeConfinement = confinementRule("unsafe-confinement")
	analyzeCryptoConfinement = confinementRule("crypto-confinement")
	analyzeDSLConfinement    = confinementRule("dsl-confinement")
	analyzePlanConfinement   = confinementRule("plan-confinement")
)

// confinementRule returns the named table row's check, panicking at package
// init if the table lost the row.
func confinementRule(name string) func(*unit, bool, reportFunc) {
	for i := range confinements {
		if confinements[i].name == name {
			return confinements[i].check
		}
	}
	panic("nwvet: no confinement rule " + name)
}

// TestConfinementTableShape checks every row is complete: it covers at
// least one import, scopes at least one directory, and has a diagnostic for
// each kind of finding it can report.
func TestConfinementTableShape(t *testing.T) {
	for _, c := range confinements {
		if c.name == "" || len(c.imports) == 0 || len(c.dirs) == 0 || c.importMsg == "" {
			t.Errorf("incomplete confinement rule: %+v", c)
		}
		if (len(c.selectors) == 0) != (c.selectorMsg == "") {
			t.Errorf("%s: selectors and selector diagnostic must come together", c.name)
		}
	}
}
