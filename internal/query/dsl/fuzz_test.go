package dsl

import (
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/query"
)

// nodeCount bounds compilation work: boolean operators compile to automaton
// products, so state counts multiply with expression size.
func nodeCount(e Expr) int {
	switch e := e.(type) {
	case andExpr:
		return 1 + nodeCount(e.L) + nodeCount(e.R)
	case orExpr:
		return 1 + nodeCount(e.L) + nodeCount(e.R)
	case notExpr:
		return 1 + nodeCount(e.X)
	}
	return 1
}

// FuzzDSLParse: parsing never panics; every successful parse has a stable
// canonical spelling; and every small parsed query compiles against its own
// label set and survives the bundle Marshal/Unmarshal round trip — the same
// path `nwtool compile -dsl` feeds and the serving daemons load.
func FuzzDSLParse(f *testing.F) {
	f.Add("within book: title before author")
	f.Add("no write after close and well-formed")
	f.Add("not (contains a or //x//y) and b before c")
	f.Add("within f: no a after b; contains c")
	f.Add("((((a before b))))")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 512 {
			return
		}
		e, err := parse(in)
		if err != nil {
			return
		}
		s := e.String()
		e2, err := parse(s)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", s, in, err)
		}
		if s2 := e2.String(); s2 != s {
			t.Fatalf("canonical form not stable: %q re-parses to %q", s, s2)
		}

		labels := Labels(e)
		if nodeCount(e) > 6 || len(labels) > 8 {
			return
		}
		alpha := alphabet.New(labels...)
		q, err := compile(e, alpha)
		if err != nil {
			t.Fatalf("compile(%q) over its own labels: %v", s, err)
		}
		b := query.NewBundle(alpha)
		if err := b.Add(s, q); err != nil {
			t.Fatalf("bundle Add(%q): %v", s, err)
		}
		rt, err := query.UnmarshalBundle(b.Marshal())
		if err != nil {
			t.Fatalf("bundle round trip of %q: %v", s, err)
		}
		if rt.Len() != 1 || rt.Name(0) != s {
			t.Fatalf("bundle round trip of %q: %d queries, name %q", s, rt.Len(), rt.Name(0))
		}
	})
}

func TestFuzzSeedsCoverKeywords(t *testing.T) {
	// Make sure the corpus exercises each atom form, so the fuzzer starts
	// from inputs that reach the compiler.
	for _, in := range []string{
		"well-formed", "contains a", "a before b", "//a//b",
		"no a after b", "within s: a", "within s: no a after b",
	} {
		if _, err := parse(in); err != nil {
			t.Fatalf("parse(%q): %v", in, err)
		}
	}
	if _, err := parse(strings.Repeat("(", 200) + "contains a" + strings.Repeat(")", 200)); err != nil {
		t.Fatalf("deep parens: %v", err)
	}
}
