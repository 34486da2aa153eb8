// Compilation from the DSL AST to the query package's compiled automata.
// Every construct lowers onto a deterministic NWA: the existing constructors
// (LinearOrder, PathQuery, WellFormed), the boolean closure, and withinDNWA,
// a direct k+5-state deterministic automaton for the within predicate.  The
// matching-return scope boundary of within is what separates nested-word
// automata from word automata; the nondeterministic construction that
// guesses the witness scope lives on in the tests as withinDNWA's oracle.
package dsl

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/query"
)

// compile compiles a parsed expression against the document alphabet into
// the same compiled form every other deterministic query source produces, a
// *query.Compiled, so the result registers with the engine, product-compiles
// in the planner and serializes into NWQ1 bundles unchanged.  Every label
// the expression mentions must be in alpha: compiled symbol IDs only exist
// for alphabet members, and a silently-absent label would make the query
// trivially false.
func compile(e Expr, alpha *alphabet.Alphabet) (*query.Compiled, error) {
	var missing []string
	for _, l := range Labels(e) {
		if _, ok := alpha.Index(l); !ok {
			missing = append(missing, l)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("dsl: query %q uses labels not in the alphabet: %v", e.String(), missing)
	}
	return query.Compile(lower(e, alpha)), nil
}

// Queries compiles several expressions under their canonical display names
// — the DSL counterpart of query.StandardSet, and like it the single
// definition both the bundle compiler (nwtool) and the in-process tools
// (nwquery, nwserve) share, so a bundle-booted server and an in-process one
// answer identically for the same -dsl string.
func Queries(alpha *alphabet.Alphabet, exprs []Expr) (names []string, queries []*query.Compiled, err error) {
	for _, e := range exprs {
		q, err := compile(e, alpha)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, e.String())
		queries = append(queries, q)
	}
	return names, queries, nil
}

// lower builds the deterministic automaton for an expression.  Labels have
// been validated against alpha by compile.
func lower(e Expr, alpha *alphabet.Alphabet) *nwa.DNWA {
	switch e := e.(type) {
	case wellFormedExpr:
		return query.WellFormed(alpha)
	case containsExpr:
		return query.ContainsLabel(alpha, e.Label)
	case orderExpr:
		return query.LinearOrder(alpha, e.Labels...)
	case pathExpr:
		return query.PathQuery(alpha, e.Labels...)
	case noAfterExpr:
		// "no x after y" = there is no y ... x subsequence.
		return query.Not(query.LinearOrder(alpha, e.Trigger, e.Forbidden))
	case withinExpr:
		if e.Order != nil {
			return withinDNWA(alpha, e.Scope, e.Order)
		}
		// "within s: no x after y" = no s-scope contains y ... x.
		return query.Not(withinDNWA(alpha, e.Scope, []string{e.Trigger, e.Forbidden}))
	case andExpr:
		return query.And(lower(e.L, alpha), lower(e.R, alpha))
	case orExpr:
		return query.Or(lower(e.L, alpha), lower(e.R, alpha))
	case notExpr:
		return query.Not(lower(e.X, alpha))
	}
	panic(fmt.Sprintf("dsl: unknown expression type %T", e))
}

// withinDNWA builds the existential scope-order automaton: some scope
// element's span (its own call/return positions excluded) contains the
// pattern labels in left-to-right order, at positions of any kind.
//
// The natural automaton guesses the witness scope nondeterministically (the
// tests keep it as withinNNWA, this construction's oracle).  Determinizing
// it works but pays the generic subset blow-up (hundreds of states); this
// direct construction stays at k+5 states on the strength of two
// observations.  First, acceptance is equivalent to "some
// scope's match progress reaches k while the scope is open": once that
// happens the scope either closes (witness found) or the document ends
// inside it, and both accept.  Second, greedy subsequence progress is
// monotone in how early matching started — if two scopes are open, the
// outer one opened earlier, saw a superset of the inner one's interior, and
// advancing both on the same symbol preserves i1 >= i2 — so the outermost open scope always
// carries the maximal progress and is the only one worth tracking: it
// reaches k first, and it closes last.
//
// States: noScope = 0 (start; doubles as the marker for frames opened
// outside any scope and as the pending-return hierarchical state), p_q =
// 1+q (q = 0..k-1: outermost open scope has progress q), found = k+1
// (sticky accept), scopeTop = k+2 (marker for the outermost scope's own
// frame), inside = k+3 (marker for frames opened inside it), foundM = k+4
// (marker for frames opened after accepting).
func withinDNWA(alpha *alphabet.Alphabet, scope string, pattern []string) *nwa.DNWA {
	k := len(pattern)
	const noScope = 0
	p := func(q int) int { return 1 + q }
	found := k + 1
	scopeTop := k + 2
	inside := k + 3
	foundM := k + 4
	b := nwa.NewDNWABuilder(alpha, k+5)
	b.SetStart(noScope).SetAccept(found)
	// state after the outermost scope's progress q sees one position
	// labelled sym.
	after := func(q int, sym string) int {
		if sym == pattern[q] {
			if q+1 == k {
				return found
			}
			return p(q + 1)
		}
		return p(q)
	}
	for s := 0; s < alpha.Size(); s++ {
		sym := alpha.Symbol(s)
		b.Internal(noScope, sym, noScope)
		if sym == scope {
			b.Call(noScope, sym, p(0), scopeTop)
		} else {
			b.Call(noScope, sym, noScope, noScope)
		}
		b.Return(noScope, noScope, sym, noScope)
		for q := 0; q < k; q++ {
			b.Internal(p(q), sym, after(q, sym))
			b.Call(p(q), sym, after(q, sym), inside)
			b.Return(p(q), inside, sym, after(q, sym))
			// The scope's own closing return is excluded from its progress;
			// below full progress the scope simply failed.
			b.Return(p(q), scopeTop, sym, noScope)
		}
		b.Internal(found, sym, found)
		b.Call(found, sym, found, foundM)
		for _, hier := range []int{foundM, inside, scopeTop, noScope} {
			b.Return(found, hier, sym, found)
		}
	}
	return b.Build()
}
