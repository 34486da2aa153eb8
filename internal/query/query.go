// Package query builds document queries as nested word automata and
// compiles them for streaming evaluation, following the paper's motivation:
// queries that mix the linear order of a document with its hierarchical
// structure are awkward for tree automata but natural for nested word
// automata.
//
// # Query constructors
//
// The package provides three families of queries over documents (well-matched
// nested words whose calls/returns are element tags and whose internals are
// text tokens):
//
//   - linear-order queries Σ* p1 Σ* ... pn Σ* from the paper's introduction:
//     the given labels occur in the document in that left-to-right order,
//     regardless of nesting;
//   - hierarchical path queries: some root-to-node chain of elements matches
//     the given label sequence (a descendant-axis XPath skeleton);
//   - well-formedness and matched-tag validation.
//
// All constructors build DNWAs, so they compose under the boolean operations
// of the nwa package and run in a single streaming pass.
//
// # Compiled queries: map-backed vs table-backed automata
//
// The nwa package keeps transitions in maps keyed by (state, symbol-string)
// — the right representation for the paper's constructions, where very large
// automata (the s^s-state bottom-up conversions, determinizations) only pay
// for the transitions they define.  It is the wrong representation for the
// serving hot path: experiment E21 showed the per-event map lookups of
// DNWA.Step* dominating multi-query fan-out throughput.
//
// Compile therefore flattens a DNWA once, ahead of the stream, into an
// immutable compiled form whose call and internal transitions live in flat
// dense slices indexed by state*numSymbols+sym.  The return index pairs a
// linear state with one of the H hierarchical states, and most pairs repeat
// a few distinct rows of targets, so a Compiled stores one row ID per pair
// and each distinct row once (see compiled.go); a return step is two loads.
// Symbols are interned integer IDs with one dedicated out-of-alphabet ID, so
// unknown document labels take the same indexed path as known ones (see
// compiled.go and docstream.NewInterningTokenizer).  Experiment E22 measures
// the compiled path against the map-backed one.
//
// Compiled is the one automaton type the engine serves.  DNWAs are closed
// under product and every NNWA can be determinized (Section 3.2), so a
// served query set is a set of deterministic products: a planned cluster is
// a CompileProduct over several Compiled members, and a solo query is the
// one-member product SoloProduct wraps around one Compiled.  The engine
// steps every one with the same ProductRunner, one state per event.
// CompileN keeps an in-process runner for NNWAs, the subset-of-pairs
// simulation with one summary set per stack frame, which the differential
// tests check against NNWA.Accepts and Determinize+Compile; it is not
// served.
package query

import (
	"strings"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/word"
)

// LinearOrder compiles the introduction's query: the pattern labels occur in
// the document (at positions of any kind) in the given left-to-right order.
// The automaton is flat and has O(len(patterns)) states — the succinctness
// contrast with bottom-up tree automata is experiment E10.
func LinearOrder(alpha *alphabet.Alphabet, patterns ...string) *nwa.DNWA {
	dfa := word.CompileRegexDFA(word.LinearOrderQuery(patterns...), alpha)
	return nwa.FlatFromWordDFAOverPlainAlphabet(dfa, alpha)
}

// WellFormed compiles the query "the document is well matched and every
// element's closing tag carries the same label as its opening tag".
func WellFormed(alpha *alphabet.Alphabet) *nwa.DNWA {
	// States: 0 = at top level (accepting), 1 = inside at least one element;
	// hierarchical markers: one per symbol and nesting flag.
	sigma := alpha.Size()
	const topOK, insideOK = 0, 1
	markerTop := func(s int) int { return 2 + s }
	markerIn := func(s int) int { return 2 + sigma + s }
	b := nwa.NewDNWABuilder(alpha, 2+2*sigma)
	b.SetStart(topOK).SetAccept(topOK)
	for s := 0; s < sigma; s++ {
		sym := alpha.Symbol(s)
		b.Internal(topOK, sym, topOK)
		b.Internal(insideOK, sym, insideOK)
		b.Call(topOK, sym, insideOK, markerTop(s))
		b.Call(insideOK, sym, insideOK, markerIn(s))
		b.Return(insideOK, markerTop(s), sym, topOK)
		b.Return(insideOK, markerIn(s), sym, insideOK)
	}
	return b.Build()
}

// PathQuery compiles the query "some chain of nested elements labelled
// labels[0], labels[1], ..., labels[k-1] (each a descendant of the previous,
// not necessarily an immediate child) occurs in the document".  It is the
// descendant-axis skeleton of an XPath query //l1//l2//...//lk.
//
// The automaton tracks how many prefix labels are currently matched by open
// elements; the hierarchical edge remembers the progress at the time of each
// call so the progress is restored when the element closes.  It needs
// O(k·|Σ|·k) transitions and k+2-ish states, independent of the document.
func PathQuery(alpha *alphabet.Alphabet, labels ...string) *nwa.DNWA {
	k := len(labels)
	// Linear states: progress 0..k-1, and "found" = k (absorbing, accepting).
	// Hierarchical markers: one per progress value (what the progress was
	// just before the call), plus one "found" marker.
	progress := func(i int) int { return i }
	found := k
	marker := func(i int) int { return k + 1 + i }
	b := nwa.NewDNWABuilder(alpha, 2*k+2)
	b.SetStart(progress(0)).SetAccept(found)
	for s := 0; s < alpha.Size(); s++ {
		sym := alpha.Symbol(s)
		for i := 0; i < k; i++ {
			// Text never changes the progress.
			b.Internal(progress(i), sym, progress(i))
			// Opening an element: advance the progress when the label is the
			// next one we are waiting for; remember the pre-call progress on
			// the hierarchical edge.
			next := i
			if sym == labels[i] {
				next = i + 1
			}
			if next == k {
				b.Call(progress(i), sym, found, marker(i))
			} else {
				b.Call(progress(i), sym, progress(next), marker(i))
			}
			// Closing an element restores the progress recorded on the edge.
			for j := 0; j < k; j++ {
				b.Return(progress(i), marker(j), sym, progress(j))
			}
		}
		// Found is absorbing.
		b.Internal(found, sym, found)
		b.Call(found, sym, found, marker(k))
		for j := 0; j <= k; j++ {
			b.Return(found, marker(j), sym, found)
		}
	}
	return b.Build()
}

// ContainsLabel compiles the query "some position carries the given label".
func ContainsLabel(alpha *alphabet.Alphabet, label string) *nwa.DNWA {
	return LinearOrder(alpha, label)
}

// StandardSet compiles the query set the command-line tools share: the
// well-formedness check always, plus a linear-order query and a
// hierarchical path query when their label lists are non-empty, each under
// the display name the tools print.  The tools' shared query-set builder
// (cmd/internal/queryset) compiles it both for nwtool compile to serialize
// and for nwquery/nwserve to run in process, so a bundle-booted server and
// an in-process one answer identically for the same flags.
func StandardSet(alpha *alphabet.Alphabet, order, path []string) (names []string, queries []*Compiled) {
	names = append(names, "well-formed")
	queries = append(queries, Compile(WellFormed(alpha)))
	if len(order) > 0 {
		names = append(names, "order "+strings.Join(order, ","))
		queries = append(queries, Compile(LinearOrder(alpha, order...)))
	}
	if len(path) > 0 {
		names = append(names, "path //"+strings.Join(path, "//"))
		queries = append(queries, Compile(PathQuery(alpha, path...)))
	}
	return names, queries
}

// And, Or, and Not compose compiled queries using the closure constructions
// of Section 3.2.
func And(a, b *nwa.DNWA) *nwa.DNWA { return nwa.Intersect(a, b) }

// Or returns the union query.
func Or(a, b *nwa.DNWA) *nwa.DNWA { return nwa.Union(a, b) }

// Not returns the complement query.
func Not(a *nwa.DNWA) *nwa.DNWA { return a.Complement() }
