// Package dsl is the textual query language over nested-word documents: a
// small surface of paths with nesting predicates that parses to an AST and
// compiles to the same deterministic compiled automata (query.Compile) every
// other query source produces, so DSL-authored queries run in the
// engine, serialize into NWQ1 bundles, and serve over HTTP unchanged.
//
// # Grammar
//
//	query  := or
//	or     := and { "or" and }
//	and    := unary { "and" unary }
//	unary  := "not" unary | "(" query ")" | atom
//	atom   := "well-formed"
//	        | "contains" LABEL
//	        | "no" LABEL "after" LABEL
//	        | "within" LABEL ":" pred
//	        | PATH                              (e.g. //book//title)
//	        | LABEL "before" LABEL { "before" LABEL }
//	pred   := "no" LABEL "after" LABEL
//	        | LABEL "before" LABEL { "before" LABEL }
//
// Several queries can be written in one string separated by ";" (see
// ParseList).  LABEL is any word that is not a keyword and not punctuation;
// PATH is a word starting with "//" whose "//"-separated segments are the
// path's labels.  Keywords (and, or, not, no, within, before, after,
// contains, well-formed) are reserved and cannot be labels.
//
// # Semantics
//
//	well-formed             the document is well matched with equal
//	                        open/close labels (query.WellFormed)
//	contains x              some position carries label x
//	a before b before c     the labels occur in that left-to-right order,
//	                        at positions of any kind (query.LinearOrder)
//	//a//b                  a root-to-node descendant chain a, ..., b
//	                        (query.PathQuery)
//	no x after y            once y has occurred, x never occurs later —
//	                        sugar for not (y before x)
//	within s: a before b    some s-element's span (its own call/return
//	                        positions excluded) contains a and then b, in
//	                        order — a genuinely nested-word predicate: the
//	                        scope is delimited by the matching return, which
//	                        no word automaton over the linear order can see
//	within s: no x after y  no s-element's span has y and then x — sugar
//	                        for not (within s: y before x)
//
// Boolean combinations compose via the closure constructions of the nwa
// package (intersection, union, complement on deterministic automata).
// Every expression, a bare "within s: <order>" included, lowers to one
// deterministic NWA and compiles with query.Compile.
//
// Compilation is a query-set-load-time operation, like query.Compile: parse
// and compile once, then serve the compiled automaton.  Nothing in the
// serving hot path (engine, serve, server) imports this package — the
// nwvet dsl-confinement check enforces that.
package dsl

import (
	"strings"
)

// Expr is a parsed DSL query.  String returns the canonical spelling, which
// re-parses to an equal expression and doubles as the query's display name.
type Expr interface {
	String() string
	// addLabels appends the expression's labels in first-occurrence order.
	addLabels(seen map[string]bool, out *[]string)
}

// wellFormedExpr is the atom "well-formed".
type wellFormedExpr struct{}

// containsExpr is "contains Label".
type containsExpr struct{ Label string }

// orderExpr is "l1 before l2 before ... before lk" (k >= 2).
type orderExpr struct{ Labels []string }

// pathExpr is "//l1//l2//...//lk".
type pathExpr struct{ Labels []string }

// noAfterExpr is "no Forbidden after Trigger".
type noAfterExpr struct{ Forbidden, Trigger string }

// withinExpr is "within Scope: <pred>" — exactly one of Order (the order
// predicate's labels, len >= 1) or the NoAfter pair is set.
type withinExpr struct {
	Scope     string
	Order     []string // order predicate, nil for the no-after form
	Forbidden string   // no-after predicate ...
	Trigger   string   // ... "no Forbidden after Trigger"
}

// andExpr is the conjunction "L and R".
type andExpr struct{ L, R Expr }

// orExpr is the disjunction "L or R".
type orExpr struct{ L, R Expr }

// notExpr is the negation "not X".
type notExpr struct{ X Expr }

// String returns the canonical spelling of the atom.
func (wellFormedExpr) String() string { return "well-formed" }

// String returns the canonical spelling of the atom.
func (e containsExpr) String() string { return "contains " + e.Label }

// String returns the canonical spelling of the atom.
func (e orderExpr) String() string { return strings.Join(e.Labels, " before ") }

// String returns the canonical spelling of the atom.
func (e pathExpr) String() string { return "//" + strings.Join(e.Labels, "//") }

// String returns the canonical spelling of the atom.
func (e noAfterExpr) String() string { return "no " + e.Forbidden + " after " + e.Trigger }

// String returns the canonical spelling of the atom.
func (e withinExpr) String() string {
	if e.Order != nil {
		return "within " + e.Scope + ": " + strings.Join(e.Order, " before ")
	}
	return "within " + e.Scope + ": no " + e.Forbidden + " after " + e.Trigger
}

// paren wraps sub-expressions whose top-level operator binds looser than the
// context, keeping String canonical and re-parseable with minimal noise.
func paren(e Expr, loose func(Expr) bool) string {
	if loose(e) {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func isOr(e Expr) bool  { return isKind[orExpr](e) }
func isAnd(e Expr) bool { return isKind[andExpr](e) }

func isKind[T any](e Expr) bool { _, ok := e.(T); return ok }

// String parenthesizes operands that bind looser than "and".
func (e andExpr) String() string {
	return paren(e.L, isOr) + " and " + paren(e.R, isOr)
}

// String never parenthesizes: "or" is the loosest operator.
func (e orExpr) String() string { return e.L.String() + " or " + e.R.String() }

// String parenthesizes any compound operand: "not" binds tightest.
func (e notExpr) String() string {
	return "not " + paren(e.X, func(x Expr) bool { return isOr(x) || isAnd(x) })
}

func (wellFormedExpr) addLabels(map[string]bool, *[]string) {}

func addLabel(l string, seen map[string]bool, out *[]string) {
	if !seen[l] {
		seen[l] = true
		*out = append(*out, l)
	}
}

func (e containsExpr) addLabels(seen map[string]bool, out *[]string) { addLabel(e.Label, seen, out) }

func (e orderExpr) addLabels(seen map[string]bool, out *[]string) {
	for _, l := range e.Labels {
		addLabel(l, seen, out)
	}
}

func (e pathExpr) addLabels(seen map[string]bool, out *[]string) {
	for _, l := range e.Labels {
		addLabel(l, seen, out)
	}
}

func (e noAfterExpr) addLabels(seen map[string]bool, out *[]string) {
	addLabel(e.Trigger, seen, out)
	addLabel(e.Forbidden, seen, out)
}

func (e withinExpr) addLabels(seen map[string]bool, out *[]string) {
	addLabel(e.Scope, seen, out)
	for _, l := range e.Order {
		addLabel(l, seen, out)
	}
	if e.Order == nil {
		addLabel(e.Trigger, seen, out)
		addLabel(e.Forbidden, seen, out)
	}
}

func (e andExpr) addLabels(seen map[string]bool, out *[]string) {
	e.L.addLabels(seen, out)
	e.R.addLabels(seen, out)
}

func (e orExpr) addLabels(seen map[string]bool, out *[]string) {
	e.L.addLabels(seen, out)
	e.R.addLabels(seen, out)
}

func (e notExpr) addLabels(seen map[string]bool, out *[]string) { e.X.addLabels(seen, out) }

// Labels returns the document labels an expression mentions, in
// first-occurrence order — the alphabet contribution of the query, the way
// the -order and -path label lists contribute labels for the flag spelling.
// orderExpr matters: alphabet order determines compiled symbol IDs.
func Labels(exprs ...Expr) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range exprs {
		e.addLabels(seen, &out)
	}
	return out
}
