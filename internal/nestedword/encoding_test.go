package nestedword

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTaggedRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a b c", "<a a>", "a a> <b a a> <a <a", "<a <a a> <b b> a>"} {
		n := MustParse(s)
		back := FromTagged(n.ToTagged())
		if !n.Equal(back) {
			t.Errorf("tagged round trip failed for %q", s)
		}
	}
}

func TestQuickTaggedBijection(t *testing.T) {
	// nw_w and w_nw are mutually inverse bijections (Section 2.2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 50)
		return n.Equal(FromTagged(n.ToTagged()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTaggedSymbolString(t *testing.T) {
	cases := []struct {
		ts   TaggedSymbol
		want string
	}{
		{TaggedSymbol{"a", Call}, "<a"},
		{TaggedSymbol{"a", Return}, "a>"},
		{TaggedSymbol{"a", Internal}, "a"},
	}
	for _, c := range cases {
		if got := c.ts.String(); got != c.want {
			t.Errorf("TaggedSymbol%v.String() = %q, want %q", c.ts, got, c.want)
		}
	}
}

func TestPath(t *testing.T) {
	p := Path("a", "b", "c")
	want := MustParse("<a <b <c c> b> a>")
	if !p.Equal(want) {
		t.Errorf("Path(a,b,c) = %v, want %v", p, want)
	}
	if !p.IsRooted() {
		t.Errorf("path words must be rooted")
	}
	if p.Depth() != 3 {
		t.Errorf("path(abc) depth = %d, want 3", p.Depth())
	}
	if !p.IsTreeWord() {
		t.Errorf("path words are tree words (unary trees)")
	}
	empty := Path()
	if empty.Len() != 0 {
		t.Errorf("Path() should be empty, got %v", empty)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"<", ">", "a<b", "<a> >", "< >"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseLeafAbbreviation(t *testing.T) {
	n := MustParse("<a>")
	want := MustParse("<a a>")
	if !n.Equal(want) {
		t.Errorf("leaf abbreviation <a> should parse as <a a>, got %v", n)
	}
}

func TestParseWhitespace(t *testing.T) {
	n := MustParse("  <a \t b   a>  ")
	if n.Len() != 3 {
		t.Errorf("whitespace handling broken: %v", n)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParse of invalid input should panic")
		}
	}()
	MustParse("<")
}
