package dsl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
)

// TestParseString pins the canonical spelling and its re-parse stability.
func TestParseString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"well-formed", "well-formed"},
		{"contains title", "contains title"},
		{"title before author", "title before author"},
		{"a before b before c", "a before b before c"},
		{"//book//title", "//book//title"},
		{"no write after close", "no write after close"},
		{"within book: title before author", "within book: title before author"},
		{"within book: title", "within book: title"},
		{"within file: no write after close", "within file: no write after close"},
		{"not well-formed", "not well-formed"},
		{"well-formed and contains a", "well-formed and contains a"},
		{"contains a or contains b and well-formed", "contains a or contains b and well-formed"},
		{"(contains a or contains b) and well-formed", "(contains a or contains b) and well-formed"},
		{"not (contains a and contains b)", "not (contains a and contains b)"},
		{"  within   book :  title   before  author ", "within book: title before author"},
		{"not(contains a)or well-formed", "not contains a or well-formed"},
	}
	for _, c := range cases {
		e, err := parse(c.in)
		if err != nil {
			t.Errorf("parse(%q): %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// The canonical spelling must re-parse to itself.
		e2, err := parse(e.String())
		if err != nil {
			t.Errorf("re-parse(%q): %v", e.String(), err)
			continue
		}
		if e2.String() != e.String() {
			t.Errorf("re-parse(%q).String() = %q, not stable", e.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "before", "contains", "contains and", "a before", "a",
		"within book title", "within: title", "within book:",
		"no x", "no x before y", "(contains a", "contains a)",
		"//", "//a//", "////", "//and//b", "well-formed contains a",
		"within before: a", "contains //a//b",
	}
	for _, in := range bad {
		if e, err := parse(in); err == nil {
			t.Errorf("parse(%q) = %v, want error", in, e)
		}
	}
}

func TestParseList(t *testing.T) {
	exprs, err := ParseList(" well-formed ; ; within book: title before author;")
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 2 || exprs[0].String() != "well-formed" || exprs[1].String() != "within book: title before author" {
		t.Fatalf("ParseList = %v", exprs)
	}
	if _, err := ParseList("well-formed; bogus before"); err == nil {
		t.Fatal("ParseList with a bad entry: want error")
	}
}

func TestCompileMissingLabel(t *testing.T) {
	alpha := alphabet.New("a", "b")
	e, err := parse("contains c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compile(e, alpha); err == nil || !strings.Contains(err.Error(), "c") {
		t.Fatalf("Compile with missing label: err = %v, want mention of c", err)
	}
}

// oracle evaluates an expression by brute force directly over the nested
// word, independently of any automaton construction.  Documents must be
// over the query alphabet: labels outside it intern to the out-of-alphabet
// symbol ID and uniformly reject, a property pinned by the interning tests,
// not by this oracle.
func oracle(e Expr, n *nestedword.NestedWord) bool {
	switch e := e.(type) {
	case wellFormedExpr:
		if !n.IsWellMatched() {
			return false
		}
		// Equal open/close labels on every matched pair.
		var stack []string
		for i := 0; i < n.Len(); i++ {
			switch n.KindAt(i) {
			case nestedword.Call:
				stack = append(stack, n.SymbolAt(i))
			case nestedword.Return:
				if len(stack) == 0 || stack[len(stack)-1] != n.SymbolAt(i) {
					return false
				}
				stack = stack[:len(stack)-1]
			}
		}
		return len(stack) == 0
	case containsExpr:
		for i := 0; i < n.Len(); i++ {
			if n.SymbolAt(i) == e.Label {
				return true
			}
		}
		return false
	case orderExpr:
		return subsequence(n, 0, n.Len(), e.Labels)
	case pathExpr:
		// Some root-to-node descendant chain matches. Track, per open
		// element, the best progress achievable at that depth.
		progress := []int{0} // progress[d] = labels matched among open elements
		best := 0
		for i := 0; i < n.Len(); i++ {
			switch n.KindAt(i) {
			case nestedword.Call:
				p := progress[len(progress)-1]
				if p < len(e.Labels) && n.SymbolAt(i) == e.Labels[p] {
					p++
				}
				if p > best {
					best = p
				}
				progress = append(progress, p)
			case nestedword.Return:
				// PathQuery defines return transitions only for its own
				// hierarchical markers, so a pending return (whose
				// hierarchical state is the start state) is dead: the
				// compiled query rejects the document outright.
				if len(progress) == 1 {
					return false
				}
				progress = progress[:len(progress)-1]
			}
		}
		return best == len(e.Labels)
	case noAfterExpr:
		return !subsequence(n, 0, n.Len(), []string{e.Trigger, e.Forbidden})
	case withinExpr:
		pattern := e.Order
		if pattern == nil {
			pattern = []string{e.Trigger, e.Forbidden}
		}
		found := false
		forEachScope(n, e.Scope, func(lo, hi int) {
			if subsequence(n, lo, hi, pattern) {
				found = true
			}
		})
		if e.Order == nil {
			return !found
		}
		return found
	case andExpr:
		return oracle(e.L, n) && oracle(e.R, n)
	case orExpr:
		return oracle(e.L, n) || oracle(e.R, n)
	case notExpr:
		return !oracle(e.X, n)
	}
	panic("unknown expr")
}

// subsequence reports whether positions lo..hi-1 contain the labels as a
// subsequence (any position kind).
func subsequence(n *nestedword.NestedWord, lo, hi int, labels []string) bool {
	j := 0
	for i := lo; i < hi && j < len(labels); i++ {
		if n.SymbolAt(i) == labels[j] {
			j++
		}
	}
	return j == len(labels)
}

// forEachScope calls f(lo, hi) for every scope-labelled call position, with
// lo..hi-1 the positions strictly inside its span (hi excludes the matching
// return; an unclosed call's span runs to the end of the word).
func forEachScope(n *nestedword.NestedWord, scope string, f func(lo, hi int)) {
	type open struct {
		pos     int
		matches bool
	}
	var stack []open
	for i := 0; i < n.Len(); i++ {
		switch n.KindAt(i) {
		case nestedword.Call:
			stack = append(stack, open{pos: i, matches: n.SymbolAt(i) == scope})
		case nestedword.Return:
			if len(stack) > 0 {
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if o.matches {
					f(o.pos+1, i)
				}
			}
		}
	}
	for _, o := range stack {
		if o.matches {
			f(o.pos+1, n.Len())
		}
	}
}

// corpus builds a deterministic mix of hand-written and seeded-random
// documents over the test alphabet, including non-well-formed ones.
func corpus(t *testing.T) []*nestedword.NestedWord {
	t.Helper()
	docs := []string{
		"",
		"<book> <title> a </title> <author> b </author> </book>",
		"<book> <author> b </author> <title> a </title> </book>",
		"<lib> <book> <title> a </title> </book> <book> <author> b </author> </book> </lib>",
		"<book> <book> <title> a </title> </book> <author> b </author> </book>",
		"<file> open close write </file>",
		"<file> open write close </file>",
		"<file> open close </file> <file> write </file>",
		"<book> <title>", // unmatched calls
		"</book> a b",    // unmatched return
		"<a> open </b>",  // mismatched labels
		"a b title author close write open",
	}
	var out []*nestedword.NestedWord
	for _, d := range docs {
		n, err := docstream.Parse(d)
		if err != nil {
			t.Fatalf("parse %q: %v", d, err)
		}
		out = append(out, n)
	}
	labels := []string{"book", "title", "author", "lib", "file", "a", "b", "open", "close", "write"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		var ps []nestedword.Position
		depth := 0
		for j, m := 0, 3+rng.Intn(20); j < m; j++ {
			sym := labels[rng.Intn(len(labels))]
			switch k := rng.Intn(3); {
			case k == 0:
				ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Call})
				depth++
			case k == 1 && (depth > 0 || rng.Intn(4) == 0):
				// Mostly matched returns, occasionally pending ones.
				ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Return})
				if depth > 0 {
					depth--
				}
			default:
				ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Internal})
			}
		}
		out = append(out, nestedword.New(ps...))
	}
	return out
}

// TestCompileAgainstOracle is the semantic pin: every DSL construct,
// compiled through the real pipeline, must agree with the brute-force
// evaluator on every corpus document.
func TestCompileAgainstOracle(t *testing.T) {
	alpha := alphabet.New("book", "title", "author", "lib", "file", "a", "b", "open", "close", "write")
	queries := []string{
		"well-formed",
		"contains title",
		"contains b",
		"title before author",
		"author before title",
		"a before b before a",
		"//book//title",
		"//lib//book//author",
		"//book//book",
		"no write after close",
		"no close after close",
		"within book: title before author",
		"within book: title",
		"within book: author before title",
		"within file: no write after close",
		"within lib: book before book",
		"well-formed and title before author",
		"not well-formed",
		"(contains a or contains b) and not well-formed",
		"not (within book: title before author)",
		"within book: title before author and well-formed",
		"no a after b or within file: open before close",
	}
	docs := corpus(t)
	for _, qs := range queries {
		e, err := parse(qs)
		if err != nil {
			t.Fatalf("parse(%q): %v", qs, err)
		}
		q, err := compile(e, alpha)
		if err != nil {
			t.Fatalf("compile(%q): %v", qs, err)
		}
		for i, d := range docs {
			got := query.RunWord(q.NewRunner(), alpha, d)
			want := oracle(e, d)
			if got != want {
				t.Errorf("query %q doc %d %q: compiled=%v oracle=%v", qs, i, docstream.Render(d), got, want)
			}
		}
	}
}

// TestWithinConstructionsAgree pins the nondeterministic within automaton
// (the oracle below) against the direct deterministic construction that
// Compile serves, on the whole corpus — the two are independent
// constructions of the same language, so their agreement is a real
// differential, not a tautology.
func TestWithinConstructionsAgree(t *testing.T) {
	alpha := alphabet.New("book", "title", "author", "lib", "file", "a", "b", "open", "close", "write")
	docs := corpus(t)
	for _, qs := range []string{
		"within book: title before author",
		"within book: title",
		"within lib: book before book",
		"within file: open before close",
		"within book: book before book",
	} {
		e, err := parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		w := e.(withinExpr)
		nn := withinNNWA(alpha, w.Scope, w.Order)
		det := withinDNWA(alpha, w.Scope, w.Order)
		for i, d := range docs {
			if nn.Accepts(d) != det.Accepts(d) {
				t.Errorf("%q doc %d %q: NNWA=%v direct DNWA=%v", qs, i, docstream.Render(d), nn.Accepts(d), det.Accepts(d))
			}
		}
	}
}

// TestWithinDeterminizeAgrees additionally checks the generic subset
// determinization against both hand constructions, on a deliberately tiny
// alphabet — the generic construction's state count explodes with alphabet
// size, and its correctness is already pinned in the nwa package.
func TestWithinDeterminizeAgrees(t *testing.T) {
	alpha := alphabet.New("book", "title", "author")
	nn := withinNNWA(alpha, "book", []string{"title", "author"})
	gen := nn.Determinize()
	direct := withinDNWA(alpha, "book", []string{"title", "author"})
	rng := rand.New(rand.NewSource(11))
	labels := []string{"book", "title", "author"}
	for i := 0; i < 200; i++ {
		var ps []nestedword.Position
		for j, m := 0, rng.Intn(14); j < m; j++ {
			kind := []nestedword.Kind{nestedword.Call, nestedword.Internal, nestedword.Return}[rng.Intn(3)]
			ps = append(ps, nestedword.Position{Symbol: labels[rng.Intn(3)], Kind: kind})
		}
		d := nestedword.New(ps...)
		if gen.Accepts(d) != direct.Accepts(d) {
			t.Errorf("doc %d %q: determinized=%v direct=%v", i, docstream.Render(d), gen.Accepts(d), direct.Accepts(d))
		}
	}
}

// BenchmarkDeterminizeWithin times the generic determinization of Section
// 3.2 on withinNNWA over |Σ| labels: the scope, k pattern labels and
// fillers.  It reports the determinized automaton's states.
func BenchmarkDeterminizeWithin(b *testing.B) {
	for _, c := range []struct{ sigma, k int }{{4, 2}, {16, 2}, {4, 3}} {
		b.Run(fmt.Sprintf("sigma=%d/k=%d", c.sigma, c.k), func(b *testing.B) {
			labels := make([]string, c.sigma)
			for i := range labels {
				labels[i] = fmt.Sprintf("l%d", i)
			}
			nn := withinNNWA(alphabet.New(labels...), labels[0], labels[1:1+c.k])
			states := 0
			for i := 0; i < b.N; i++ {
				states = nn.Determinize().NumStates()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// withinNNWA builds the existential scope-order automaton: some scope
// element's span (its own call/return positions excluded) contains the
// pattern labels in left-to-right order, at positions of any kind.
//
// The automaton guesses the witness scope nondeterministically.  A search
// state loops outside; on a scope-labelled call it may enter match state
// m_0, pushing a witness marker.  Inside, every position advances the match
// by one when it carries the next expected label (inner calls and returns
// push/pop a dummy marker so the scope's own frame stays identifiable), and
// the witness marker's return from the fully-matched state m_k reaches a
// sticky accept.  A document that ends inside a fully-matched but unclosed
// witness scope also accepts: m_k is itself accepting, consistent with the
// tokenizer's tolerance for unmatched calls.
//
// States: search = 0, m_i = 1+i (i = 0..k), accept = k+2, witness marker =
// k+3, dummy marker = k+4 — k+5 states total, independent of the document.
func withinNNWA(alpha *alphabet.Alphabet, scope string, pattern []string) *nwa.NNWA {
	k := len(pattern)
	const search = 0
	m := func(i int) int { return 1 + i }
	acc := k + 2
	witness := k + 3
	dummy := k + 4
	n := nwa.NewNNWA(alpha, k+5)
	n.AddStart(search)
	n.AddAccept(acc, m(k))
	// advance is the match progress after seeing one position labelled sym.
	advance := func(i int, sym string) int {
		if i < k && sym == pattern[i] {
			return i + 1
		}
		return i
	}
	for s := 0; s < alpha.Size(); s++ {
		sym := alpha.Symbol(s)
		// Search: loop, and guess the witness on scope calls.  The search
		// state doubles as the hierarchical marker for frames opened while
		// searching — and, being the start state, as the marker the
		// simulation supplies for the document's own pending returns.
		n.AddInternal(search, sym, search)
		n.AddCall(search, sym, search, search)
		if sym == scope {
			n.AddCall(search, sym, m(0), witness)
		}
		n.AddReturn(search, search, sym, search)
		// Match states: every position inside the span advances on the
		// expected label; the span's own closing return is excluded by
		// routing it through the witness marker instead.
		for i := 0; i <= k; i++ {
			n.AddInternal(m(i), sym, m(advance(i, sym)))
			n.AddCall(m(i), sym, m(advance(i, sym)), dummy)
			n.AddReturn(m(i), dummy, sym, m(advance(i, sym)))
		}
		n.AddReturn(m(k), witness, sym, acc)
		// Accept is sticky through any suffix, including returns of frames
		// opened before the witness (marker search) or after it (dummy).
		n.AddInternal(acc, sym, acc)
		n.AddCall(acc, sym, acc, dummy)
		n.AddReturn(acc, dummy, sym, acc)
		n.AddReturn(acc, search, sym, acc)
	}
	return n
}
