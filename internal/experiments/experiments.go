// Package experiments computes the rows of every experiment listed in
// docs/EXPERIMENTS.md: each function reproduces one theorem, lemma, or
// figure of "Marrying Words and Trees" — or one engineering claim of the
// serving stack built on top of the reproduction — on the concrete instance
// families from the internal/generator package and returns a printable
// table.  Registry lists them with their parameters: cmd/nwbench prints the
// tables, the root bench_test.go times the same computations, and
// TestExperimentsSanity checks the claims the tables print.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/pda"
	"repro/internal/pnwa"
	"repro/internal/pta"
	"repro/internal/query"
	"repro/internal/sat"
	"repro/internal/serve"
	"repro/internal/tree"
	"repro/internal/treeauto"
	"repro/internal/word"
)

// Table is one experiment's result: a title, a header, and data rows.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// String renders the table in a fixed-width layout.
func (t Table) String() string {
	out := t.Name + "\n"
	out += formatRow(t.Header)
	for _, r := range t.Rows {
		out += formatRow(r)
	}
	return out
}

func formatRow(cells []string) string {
	out := ""
	for _, c := range cells {
		out += fmt.Sprintf("%-22s", c)
	}
	return out + "\n"
}

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func btoa(v bool) string    { return fmt.Sprintf("%v", v) }
func ftoa(v float64) string { return fmt.Sprintf("%.3g", v) }

// e01Encodings checks the Figure 1 examples and random round trips through
// the nw_w / w_nw and t_nw / nw_t encodings.
func e01Encodings() Table {
	rng := rand.New(rand.NewSource(1))
	figure1 := []string{"a b <a a <b a b> a> <a b a a>", "a a> <b a a> <a <a", "<a <a a> <b b> a>"}
	okFig := 0
	for _, s := range figure1 {
		n := nestedword.MustParse(s)
		if nestedword.FromTagged(n.ToTagged()).Equal(n) {
			okFig++
		}
	}
	trials, okTree := 500, 0
	for i := 0; i < trials; i++ {
		tr := generator.RandomTree(rng, 1+rng.Intn(30), []string{"a", "b"})
		back, err := tree.FromNestedWord(tree.ToNestedWord(tr))
		if err == nil && tr.Equal(back) {
			okTree++
		}
	}
	return Table{
		Name:   "E1 (Figure 1): nested-word and tree-word encodings round-trip",
		Header: []string{"check", "instances", "round-trips"},
		Rows: [][]string{
			{"figure-1 words", itoa(len(figure1)), itoa(okFig)},
			{"random trees", itoa(trials), itoa(okTree)},
		},
	}
}

// e02WeakConversion measures Theorem 1: weak NWAs with at most s·(|Σ|+1)
// states, s counting the input's dead state.
func e02WeakConversion() Table {
	rng := rand.New(rand.NewSource(2))
	rows := [][]string{}
	for _, s := range []int{2, 3, 4, 6} {
		d := randomDNWA(rng, s)
		w := d.ToWeak()
		equivalent := nwa.Equivalent(d, w)
		rows = append(rows, []string{
			itoa(s), itoa(d.NumStates()), itoa(w.NumStates()),
			itoa(d.NumStates() * 3), btoa(w.IsWeak()), btoa(equivalent),
		})
	}
	return Table{
		Name:   "E2 (Theorem 1): every NWA has an equivalent weak NWA with at most s(|Σ|+1) states",
		Header: []string{"s", "states", "weak states", "bound", "is weak", "equivalent"},
		Rows:   rows,
	}
}

// e03FlatEquivalence measures Theorem 2: flat NWAs ≡ word DFAs over Σ̂.
func e03FlatEquivalence() Table {
	rng := rand.New(rand.NewSource(3))
	rows := [][]string{}
	tagged := nwa.TaggedAlphabet(generator.AB)
	for _, s := range []int{4, 8, 16, 32} {
		b := word.NewDFABuilder(tagged, s)
		b.SetStart(0)
		for q := 0; q < s; q++ {
			if rng.Intn(2) == 0 {
				b.SetAccept(q)
			}
			for _, sym := range tagged.Symbols() {
				b.AddTransition(q, sym, rng.Intn(s))
			}
		}
		dfa := b.Build()
		flat := nwa.FlatFromDFA(dfa, generator.AB)
		back := nwa.FlatToDFA(flat)
		rows = append(rows, []string{
			itoa(s), itoa(flat.NumStates()), btoa(flat.IsFlat()), btoa(word.Equivalent(dfa, back)),
		})
	}
	return Table{
		Name:   "E3 (Theorem 2): flat NWAs are word DFAs over the tagged alphabet",
		Header: []string{"DFA states", "flat NWA states", "is flat", "round-trip equivalent"},
		Rows:   rows,
	}
}

// e04NWAvsDFA measures Theorem 3: L_s = path(Σ^s) needs 2^s DFA states but
// O(s) NWA states.
func e04NWAvsDFA(maxS int) Table {
	rows := [][]string{}
	for s := 2; s <= maxS; s++ {
		a := generator.Theorem3NWA(s)
		dfaStates := generator.Theorem3TaggedNFA(s).MinimalDFASize()
		rows = append(rows, []string{
			itoa(s), itoa(a.NumStates()), itoa(dfaStates), itoa(1 << s),
			ftoa(float64(dfaStates) / float64(a.NumStates())),
		})
	}
	return Table{
		Name:   "E4 (Theorem 3): NWA O(s) states vs minimal word DFA ≥ 2^s states",
		Header: []string{"s", "NWA states", "min DFA states", "2^s", "ratio"},
		Rows:   rows,
	}
}

// e05BottomUpConversion measures Theorem 4: bottom-up NWAs with ≤ s^s·|Σ|
// states equivalent on well-matched words.
func e05BottomUpConversion() Table {
	rng := rand.New(rand.NewSource(5))
	rows := [][]string{}
	for _, s := range []int{2, 3, 4} {
		d := randomDNWA(rng, s)
		bu := d.ToBottomUp()
		agree := true
		for i := 0; i < 200; i++ {
			n := generator.RandomDocument(rng, 12, 4, []string{"a", "b"})
			if d.Accepts(n) != bu.Accepts(n) {
				agree = false
			}
		}
		rows = append(rows, []string{
			itoa(s), itoa(d.NumStates()), itoa(bu.NumStates()),
			ftoa(nwa.BottomUpStateBound(d.NumStates(), 2)), btoa(bu.IsBottomUp()), btoa(agree),
		})
	}
	return Table{
		Name:   "E5 (Theorem 4): bottom-up conversion, reachable states vs the s^s|Σ| bound",
		Header: []string{"s", "states", "bottom-up states", "bound", "is bottom-up", "agree on WNW"},
		Rows:   rows,
	}
}

// e06FlatVsBottomUp measures Theorem 5: the flat automaton has O(s²) states
// while every bottom-up NWA needs 2^s states (measured as the number of
// pairwise-inequivalent well-matched block words).
func e06FlatVsBottomUp(maxS int) Table {
	rows := [][]string{}
	for s := 2; s <= maxS; s++ {
		dfa := generator.Theorem5FlatDFA(s)
		flat := nwa.FlatFromDFA(dfa, generator.AB)
		signatures := map[string]bool{}
		for mask := 0; mask < 1<<s; mask++ {
			blocks := generator.Theorem5BlockWord(s, mask)
			sig := make([]byte, s)
			for i := 1; i <= s; i++ {
				if flat.Accepts(generator.Theorem5Context(i, blocks)) {
					sig[i-1] = '1'
				} else {
					sig[i-1] = '0'
				}
			}
			signatures[string(sig)] = true
		}
		rows = append(rows, []string{
			itoa(s), itoa(dfa.NumStates()), itoa(len(signatures)), itoa(1 << s),
		})
	}
	return Table{
		Name:   "E6 (Theorem 5): flat NWA O(s²) states vs ≥ 2^s congruence classes for bottom-up NWAs",
		Header: []string{"s", "flat states", "distinct classes", "2^s"},
		Rows:   rows,
	}
}

// e07JoinlessSeparation demonstrates Theorem 6's ingredients: the language
// "tree word AND contains an a-labelled position" is accepted by an NWA; its
// two conjuncts are each accepted by one of the deterministic joinless
// subclasses (flat / top-down) but the conjunction requires joining.
func e07JoinlessSeparation() Table {
	rng := rand.New(rand.NewSource(7))
	alpha := generator.AB
	treeWord := query.WellFormed(alpha) // matched tags: the tree-word shape check
	containsA := query.ContainsLabel(alpha, "a")
	conj := nwa.Intersect(treeWord, containsA)
	agree := 0
	trials := 400
	for i := 0; i < trials; i++ {
		n := generator.RandomNestedWord(rng, 10, []string{"a", "b"})
		want := containsAPredicate(n) && wellFormedPredicate(n)
		if conj.Accepts(n) == want {
			agree++
		}
	}
	return Table{
		Name:   "E7 (Theorem 6): the conjunction needs a join; an NWA product handles it",
		Header: []string{"automaton", "states", "checked", "agree"},
		Rows: [][]string{
			{"matched tags (det joinless: flat side fails)", itoa(treeWord.NumStates()), "-", "-"},
			{"contains a (det joinless: top-down side fails)", itoa(containsA.NumStates()), "-", "-"},
			{"conjunction as NWA product", itoa(conj.NumStates()), itoa(trials), itoa(agree)},
		},
	}
}

// e08JoinlessConversion measures Theorem 7: nondeterministic joinless NWAs
// with O(s²|Σ|) states.
func e08JoinlessConversion() Table {
	rng := rand.New(rand.NewSource(8))
	rows := [][]string{}
	for _, s := range []int{2, 3, 4, 6} {
		a := randomNNWA(rng, s)
		j := a.ToJoinless()
		agree := true
		for i := 0; i < 150; i++ {
			n := generator.RandomDocument(rng, 10, 4, []string{"a", "b"})
			if a.Accepts(n) != j.Accepts(n) {
				agree = false
			}
		}
		rows = append(rows, []string{
			itoa(s), itoa(j.NumStates()), itoa(nwa.JoinlessStateBound(s, 2)), btoa(agree),
		})
	}
	return Table{
		Name:   "E8 (Theorem 7): nondeterministic joinless NWAs with O(s²|Σ|) states",
		Header: []string{"s", "joinless states", "bound", "agree on WNW"},
		Rows:   rows,
	}
}

// e09PathSuccinctness measures Theorem 8 on the family L_s = Σ^s a Σ* a Σ^s.
func e09PathSuccinctness(maxS int) Table {
	rows := [][]string{}
	for s := 2; s <= maxS; s++ {
		a := generator.Theorem8NWA(s)
		dfa := word.CompileRegexDFA(generator.Theorem8Regex(s), generator.AB)
		topDown := treeauto.MinimalTopDownPathStates(dfa)
		bottomUp := treeauto.MinimalBottomUpPathStates(dfa)
		rows = append(rows, []string{
			itoa(s), itoa(a.NumStates()), itoa(topDown), itoa(bottomUp), itoa(1 << s),
		})
	}
	return Table{
		Name:   "E9 (Theorem 8): path family — NWA O(s) vs deterministic top-down/bottom-up ≥ 2^s",
		Header: []string{"s", "NWA states", "top-down states", "bottom-up states", "2^s"},
		Rows:   rows,
	}
}

// e10LinearOrderQuery measures the introduction's query Σ*p1Σ*...pnΣ*.
func e10LinearOrderQuery(maxN int) Table {
	rows := [][]string{}
	for n := 2; n <= maxN; n++ {
		alpha := generator.LinearOrderAlphabet(n)
		patterns := make([]string, n)
		for i := range patterns {
			patterns[i] = "p" + itoa(i+1)
		}
		dfa := word.CompileRegexDFA(word.LinearOrderQuery(patterns...), alpha)
		flat := query.LinearOrder(alpha, patterns...)
		// Congruence classes of well-matched fragments for the bottom-up view:
		// the 2^n subsets of patterns, distinguished by contexts that provide
		// the other patterns in order.
		signatures := map[string]bool{}
		for mask := 0; mask < 1<<n; mask++ {
			doc := generator.LinearOrderDocument(n, mask)
			sig := make([]byte, n)
			for i := 0; i < n; i++ {
				before := generator.LinearOrderDocument(n, (1<<i)-1)
				after := generator.LinearOrderDocument(n, ((1<<n)-1)&^((1<<(i+1))-1))
				assembled := nestedword.Concat(before, doc, after)
				if flat.Accepts(assembled) {
					sig[i] = '1'
				} else {
					sig[i] = '0'
				}
			}
			signatures[string(sig)] = true
		}
		rows = append(rows, []string{
			itoa(n), itoa(dfa.NumStates()), itoa(flat.NumStates()), itoa(len(signatures)), itoa(1 << n),
		})
	}
	return Table{
		Name:   "E10 (introduction): linear-order query — linear-size DFA/flat NWA vs ≥ 2^n bottom-up classes",
		Header: []string{"n", "min DFA states", "flat NWA states", "distinct classes", "2^n"},
		Rows:   rows,
	}
}

// e11TreeAutomataEmbedding measures Lemmas 1–3: tree automata embed into the
// corresponding NWA subclasses.
func e11TreeAutomataEmbedding() Table {
	rng := rand.New(rand.NewSource(11))
	// Lemma 1: stepwise bottom-up automaton for "even number of a-nodes".
	b := treeauto.NewStepwiseBuilder(generator.AB, 2)
	b.Init("a", 1).Init("b", 0)
	b.Step(0, 0, 0).Step(0, 1, 1).Step(1, 0, 1).Step(1, 1, 0)
	b.Accept(0)
	stepwise := b.Build()
	embedded := stepwise.ToBottomUpNWA()
	agree1, trials := 0, 300
	for i := 0; i < trials; i++ {
		tr := generator.RandomTree(rng, 1+rng.Intn(20), []string{"a", "b"})
		if stepwise.Accepts(tr) == embedded.Accepts(tree.ToNestedWord(tr)) {
			agree1++
		}
	}
	// Lemma 3: top-down path automaton from a DFA.
	dfa := word.CompileRegexDFA(word.Concat(word.SigmaStar(), word.Symbol("a")), generator.AB)
	pathAuto := treeauto.TopDownPathJNWA(dfa, generator.AB)
	agree2 := 0
	for i := 0; i < trials; i++ {
		l := rng.Intn(8)
		w := make([]string, l)
		for j := range w {
			w[j] = []string{"a", "b"}[rng.Intn(2)]
		}
		if pathAuto.Accepts(nestedword.Path(w...)) == dfa.Accepts(w) {
			agree2++
		}
	}
	return Table{
		Name:   "E11 (Lemmas 1–3): tree automata embed into bottom-up / top-down NWAs",
		Header: []string{"embedding", "states", "checked", "agree"},
		Rows: [][]string{
			{"stepwise → bottom-up NWA", itoa(embedded.NumStates()), itoa(trials), itoa(agree1)},
			{"DFA → top-down path NWA", itoa(pathAuto.NumStates()), itoa(trials), itoa(agree2)},
		},
	}
}

// e12PDAEmbedding measures Lemma 4: context-free word languages over Σ̂ are
// pushdown-NWA languages.
func e12PDAEmbedding() Table {
	rng := rand.New(rand.NewSource(12))
	machine := balancedTagPDA()
	alphaA := alphabet.New("a")
	p := pnwa.FromPDA(machine, alphaA)
	agree, trials := 0, 200
	for i := 0; i < trials; i++ {
		n := generator.RandomNestedWord(rng, 10, []string{"a"})
		tagged := taggedStrings(n)
		if machine.Accepts(tagged) == p.Accepts(n) {
			agree++
		}
	}
	return Table{
		Name:   "E12 (Lemma 4): pushdown word automata embed into pushdown NWAs",
		Header: []string{"PDA states", "PNWA states", "checked", "agree"},
		Rows:   [][]string{{itoa(machine.NumStates()), itoa(p.NumStates()), itoa(trials), itoa(agree)}},
	}
}

// e13PTAEmbedding measures Lemma 5 on the context-free tree language
// { c^n(d^n(e)) }: the pushdown tree automaton and the pushdown NWA over the
// corresponding tree words agree.
func e13PTAEmbedding() Table {
	machine := stemCounterPTA()
	pnwaMachine := stemCounterPNWA()
	rows := [][]string{}
	for n := 0; n <= 6; n++ {
		for _, m := range []int{n, n + 1} {
			tr := stemTree(n, m)
			treeVerdict := machine.Accepts(tr)
			wordVerdict := pnwaMachine.Accepts(tree.ToNestedWord(tr))
			rows = append(rows, []string{
				fmt.Sprintf("c^%d d^%d e", n, m), btoa(n == m), btoa(treeVerdict), btoa(wordVerdict),
			})
		}
	}
	return Table{
		Name:   "E13 (Lemma 5): a context-free tree language as a PTA and as a pushdown NWA",
		Header: []string{"tree", "in language", "PTA verdict", "PNWA verdict"},
		Rows:   rows,
	}
}

// e14CountingSeparation measures Theorem 9: "equal numbers of a's and b's"
// as a pushdown NWA on the stem-plus-full-binary-tree family of Figure 2.
func e14CountingSeparation(maxS int) Table {
	p := pnwa.EqualCounts()
	rows := [][]string{}
	addRow := func(label string, tr *tree.Tree) {
		n := tree.ToNestedWord(tr)
		as := 2 * tr.CountLabel("a")
		bs := 2 * tr.CountLabel("b")
		rows = append(rows, []string{
			label, itoa(as), itoa(bs), btoa(as == bs), btoa(p.Accepts(n)),
		})
	}
	for s := 1; s <= maxS; s++ {
		// The Figure 2 shape: a stem of 2s a-nodes over a full binary tree of
		// depth s — the counts never balance, which is what the pumping
		// argument exploits.
		addRow(fmt.Sprintf("stem 2·%d + binary depth %d", s, s), generator.Figure2Tree(s))
		// A balanced variant: a stem of 2^s−1 a-nodes balances the binary
		// part exactly, giving positive instances as well.
		balanced := tree.Stem("a", (1<<s)-1, tree.FullBinary("b", s))
		addRow(fmt.Sprintf("stem %d + binary depth %d", (1<<s)-1, s), balanced)
	}
	return Table{
		Name:   "E14 (Theorem 9, Figure 2): equal-count language on stem + full binary tree families",
		Header: []string{"tree", "a-positions", "b-positions", "in language", "PNWA verdict"},
		Rows:   rows,
	}
}

// e15MembershipNPReduction measures Theorem 10: CNF satisfiability reduces
// to pushdown-NWA membership and agrees with DPLL.
func e15MembershipNPReduction() Table {
	rng := rand.New(rand.NewSource(15))
	rows := [][]string{}
	for _, size := range [][2]int{{4, 8}, {6, 12}, {8, 16}, {10, 24}} {
		v, s := size[0], size[1]
		agreements, satCount := 0, 0
		trials := 10
		for i := 0; i < trials; i++ {
			f := sat.Random3CNF(rng, v, s)
			inst := pnwa.NewCNFMembershipInstance(f)
			bySolver := f.Satisfiable()
			byMembership := inst.Satisfiable()
			if bySolver == byMembership {
				agreements++
			}
			if bySolver {
				satCount++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("v=%d s=%d", v, s), itoa(trials), itoa(satCount), itoa(agreements),
		})
	}
	return Table{
		Name:   "E15 (Theorem 10): CNF satisfiability via pushdown-NWA membership vs DPLL",
		Header: []string{"instance size", "formulas", "satisfiable", "reduction agrees"},
		Rows:   rows,
	}
}

// e16PNWAEmptiness measures Theorem 11: emptiness by R(q,U,q') saturation on
// the automata of the other pushdown experiments.
func e16PNWAEmptiness() Table {
	equal := pnwa.EqualCounts()
	embedded := pnwa.FromPDA(balancedTagPDA(), alphabet.New("a"))
	emptyAutomaton := pnwa.New(alphabet.New("a"), 2)
	emptyAutomaton.AddStart(0)
	emptyAutomaton.AddInternal(0, "a", 1) // no state can pop ⊥
	unsat := pnwa.NewCNFMembershipInstance(sat.New(1, sat.Clause{1}, sat.Clause{-1}))
	satisfiable := pnwa.NewCNFMembershipInstance(sat.New(2, sat.Clause{1, -2}, sat.Clause{2}))
	rows := [][]string{
		{"equal-counts (Thm 9)", btoa(equal.IsEmpty()), itoa(equal.SummaryCount())},
		{"embedded Dyck PDA (Lemma 4)", btoa(embedded.IsEmpty()), itoa(embedded.SummaryCount())},
		{"no state pops the bottom symbol", btoa(emptyAutomaton.IsEmpty()), itoa(emptyAutomaton.SummaryCount())},
		{"CNF automaton, unsatisfiable formula", btoa(unsat.Automaton.IsEmpty()), itoa(unsat.Automaton.SummaryCount())},
		{"CNF automaton, satisfiable formula", btoa(satisfiable.Automaton.IsEmpty()), itoa(satisfiable.Automaton.SummaryCount())},
	}
	return Table{
		Name:   "E16 (Theorem 11): pushdown-NWA emptiness by summary saturation",
		Header: []string{"automaton", "empty", "summaries"},
		Rows:   rows,
	}
}

// e17Determinization measures the determinization bound of Section 3.2: an
// NNWA with s states has a deterministic equivalent with 2^(s²) linear
// states and 2^(s²)·|Σ| hierarchical states.  A DNWA here has one state set,
// so its states, the dead state included, number at most 2^(s²)(|Σ|+1)+1;
// the linearly reachable ones are held to the 2^(s²) linear bound.
func e17Determinization() Table {
	rng := rand.New(rand.NewSource(17))
	rows := [][]string{}
	for _, s := range []int{2, 3, 4} {
		a := randomNNWA(rng, s)
		d := a.Determinize()
		agree := true
		for i := 0; i < 200; i++ {
			n := generator.RandomNestedWord(rng, 10, []string{"a", "b"})
			if a.Accepts(n) != d.Accepts(n) {
				agree = false
			}
		}
		linear := 0
		for _, r := range nwa.ReachableStates(d) {
			if r {
				linear++
			}
		}
		rows = append(rows, []string{
			itoa(s), itoa(d.NumStates()), itoa(1<<(s*s)*(a.Alphabet().Size()+1) + 1),
			itoa(linear), itoa(1 << (s * s)), btoa(agree),
		})
	}
	return Table{
		Name:   "E17 (Section 3.2): determinization — reachable states vs the 2^(s²)(|Σ|+1)+1 bound",
		Header: []string{"s", "det states (reachable)", "bound", "linear states", "linear bound", "language preserved"},
		Rows:   rows,
	}
}

// e19DecisionProcedures measures the linear-time membership and cubic
// emptiness claims on growing inputs.
func e19DecisionProcedures() Table {
	rng := rand.New(rand.NewSource(19))
	q := query.WellFormed(generator.AB)
	rows := [][]string{}
	for _, size := range []int{1000, 10000, 100000} {
		doc := generator.RandomDocument(rng, size, 32, []string{"a", "b"})
		verdict := q.Accepts(doc)
		rows = append(rows, []string{
			itoa(size), itoa(doc.Depth()), btoa(verdict), btoa(!q.IsEmpty()),
		})
	}
	return Table{
		Name:   "E19 (Section 3.2): membership is single-pass with stack bounded by depth; emptiness decidable",
		Header: []string{"document positions", "depth", "accepted", "automaton non-empty"},
		Rows:   rows,
	}
}

// e20Streaming measures the streaming evaluation of documents.
func e20Streaming() Table {
	rng := rand.New(rand.NewSource(20))
	alpha := alphabet.New("a", "b", "c")
	q := query.PathQuery(alpha, "a", "b")
	rows := [][]string{}
	for _, size := range []int{1000, 10000, 100000} {
		doc := generator.RandomDocument(rng, size, 24, []string{"a", "b", "c"})
		runner := docstream.NewStreamingRunner(q)
		maxDepth := 0
		for i := 0; i < doc.Len(); i++ {
			runner.Feed(docstream.Event{Kind: doc.KindAt(i), Label: doc.SymbolAt(i)})
			if runner.Depth() > maxDepth {
				maxDepth = runner.Depth()
			}
		}
		rows = append(rows, []string{
			itoa(doc.Len()), itoa(maxDepth), btoa(runner.Accepting()),
		})
	}
	return Table{
		Name:   "E20 (Section 1): streaming documents as nested words, memory bounded by depth",
		Header: []string{"positions", "max open elements", "query verdict"},
		Rows:   rows,
	}
}

// E21Queries builds the named query mix used by the multi-query streaming
// experiment: path, linear-order, label, and well-formedness queries over
// the three-letter document alphabet, in a fixed order so "the first n
// queries" is a stable workload.
func E21Queries(alpha *alphabet.Alphabet, n int) (names []string, queries []*nwa.DNWA) {
	type nq struct {
		name string
		q    *nwa.DNWA
	}
	all := []nq{
		{"well-formed", query.WellFormed(alpha)},
		{"//a//b", query.PathQuery(alpha, "a", "b")},
		{"order a,b,c", query.LinearOrder(alpha, "a", "b", "c")},
		{"//b//c", query.PathQuery(alpha, "b", "c")},
		{"contains c", query.ContainsLabel(alpha, "c")},
		{"//a//b//c", query.PathQuery(alpha, "a", "b", "c")},
		{"order c,a", query.LinearOrder(alpha, "c", "a")},
		{"//c//a", query.PathQuery(alpha, "c", "a")},
		{"order b,b", query.LinearOrder(alpha, "b", "b")},
		{"//b//a", query.PathQuery(alpha, "b", "a")},
		{"contains a", query.ContainsLabel(alpha, "a")},
		{"//c//b//a", query.PathQuery(alpha, "c", "b", "a")},
		{"order a,c,b", query.LinearOrder(alpha, "a", "c", "b")},
		{"//a//c", query.PathQuery(alpha, "a", "c")},
		{"order c,c,c", query.LinearOrder(alpha, "c", "c", "c")},
		{"//b//c//a", query.PathQuery(alpha, "b", "c", "a")},
	}
	if n > len(all) {
		n = len(all)
	}
	for _, e := range all[:n] {
		names = append(names, e.name)
		queries = append(queries, e.q)
	}
	return names, queries
}

// e21Labels is the document alphabet of the streaming experiment.
var e21Labels = []string{"a", "b", "c"}

const e21Seed = 21

// dnwaEngine compiles and registers each DNWA under its name on a fresh
// engine.  The experiments build their query sets in code, so a
// registration error is a bug.
func dnwaEngine(names []string, ds []*nwa.DNWA) *engine.Engine {
	eng := engine.New()
	for i, d := range ds {
		if _, err := eng.RegisterQuery(names[i], query.Compile(d)); err != nil {
			panic(err)
		}
	}
	return eng
}

// e21MultiQueryStreaming measures the engine package's extension of the
// Section 3.2 streaming claim to N simultaneous queries: a single pass fans
// every event out to N per-query runners, versus re-scanning (re-generating)
// the document once per query with one StreamingRunner each.  The document
// is produced by a streaming generator and never materialized, so the
// engine's memory is the batch buffer plus one depth-bounded stack per
// query; the alloc column reports the bytes allocated during the timed
// pooled pass.
func e21MultiQueryStreaming(size, maxDepth int) Table {
	alpha := alphabet.New(e21Labels...)
	rows := [][]string{}
	for _, n := range []int{1, 2, 4, 8, 16} {
		names, queries := E21Queries(alpha, n)
		eng := dnwaEngine(names, queries)
		stream := func() *generator.DocumentStream {
			return generator.NewDocumentStream(e21Seed, size, maxDepth, e21Labels)
		}
		// Warm-up pass so the timed passes reuse a pooled session.
		if _, err := eng.Run(stream()); err != nil {
			panic(err)
		}
		// Each side is timed over a few passes and the fastest is kept, so a
		// scheduling hiccup on one pass does not decide the comparison.
		const reps = 3
		var res *engine.Result
		var fanout time.Duration
		var allocKB float64
		for rep := 0; rep < reps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			r, err := eng.Run(stream())
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				panic(err)
			}
			if rep == 0 || d < fanout {
				res, fanout = r, d
				allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
			}
		}

		// Serial baseline: one full re-scan of the document per query.
		var serial time.Duration
		serialVerdicts := make([]bool, len(queries))
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			for i, q := range queries {
				r := docstream.NewStreamingRunner(q)
				src := stream()
				for {
					e, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						panic(err)
					}
					r.Feed(e)
				}
				serialVerdicts[i] = r.Accepting()
			}
			if d := time.Since(t0); rep == 0 || d < serial {
				serial = d
			}
		}

		agree := true
		for i := range serialVerdicts {
			if serialVerdicts[i] != res.Verdicts[i] {
				agree = false
			}
		}
		perEvent := func(d time.Duration) string {
			return ftoa(float64(d.Nanoseconds()) / float64(res.Events))
		}
		rows = append(rows, []string{
			itoa(n), itoa(res.Events), itoa(res.MaxDepth),
			perEvent(fanout), perEvent(serial),
			ftoa(float64(serial) / float64(fanout)),
			ftoa(allocKB), btoa(agree),
		})
	}
	return Table{
		Name:   "E21 (engine): N simultaneous queries, single-pass fan-out vs one re-scan per query",
		Header: []string{"queries", "events", "depth", "fanout ns/ev", "serial ns/ev", "speedup", "alloc KB", "agree"},
		Rows:   rows,
	}
}

// e22CompiledVsMap measures the compiled query API against the map-backed
// automaton representation on multi-query fan-out: the same single pass over
// the same generated document drives N queries either as compiled runners
// inside the engine (dense transition tables indexed by interned symbol IDs,
// one label→ID lookup per event in total) or as N map-keyed
// docstream.StreamingRunner instances (one map lookup per event per query,
// the pre-compile hot path E21 showed dominating throughput).  Both sides
// must agree on every verdict; the speedup column is the reproduction's
// evidence that the compile step pays for itself.
func e22CompiledVsMap(size, maxDepth int) Table {
	alpha := alphabet.New(e21Labels...)
	rows := [][]string{}
	for _, n := range []int{1, 2, 4, 8, 16} {
		names, queries := E21Queries(alpha, n)
		eng := dnwaEngine(names, queries)
		stream := func() *generator.DocumentStream {
			return generator.NewDocumentStream(e21Seed, size, maxDepth, e21Labels)
		}
		// Warm-up pass so the timed passes reuse a pooled session.
		if _, err := eng.Run(stream()); err != nil {
			panic(err)
		}
		const reps = 3
		var res *engine.Result
		var compiled time.Duration
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			r, err := eng.Run(stream())
			d := time.Since(t0)
			if err != nil {
				panic(err)
			}
			if rep == 0 || d < compiled {
				res, compiled = r, d
			}
		}

		// Map-backed baseline: the identical single pass, but every query
		// steps its source DNWA through the (state, label-string) maps.
		var mapped time.Duration
		mapVerdicts := make([]bool, len(queries))
		for rep := 0; rep < reps; rep++ {
			runners := make([]*docstream.StreamingRunner, len(queries))
			for i, q := range queries {
				runners[i] = docstream.NewStreamingRunner(q)
			}
			src := stream()
			t0 := time.Now()
			for {
				e, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					panic(err)
				}
				for _, r := range runners {
					r.Feed(e)
				}
			}
			if d := time.Since(t0); rep == 0 || d < mapped {
				mapped = d
				for i, r := range runners {
					mapVerdicts[i] = r.Accepting()
				}
			}
		}

		agree := true
		for i := range mapVerdicts {
			if mapVerdicts[i] != res.Verdicts[i] {
				agree = false
			}
		}
		perEvent := func(d time.Duration) string {
			return ftoa(float64(d.Nanoseconds()) / float64(res.Events))
		}
		rows = append(rows, []string{
			itoa(n), itoa(res.Events),
			perEvent(compiled), perEvent(mapped),
			ftoa(float64(mapped) / float64(compiled)), btoa(agree),
		})
	}
	return Table{
		Name:   "E22 (query API): compiled dense tables + interned symbols vs map-keyed Step*, same single pass",
		Header: []string{"queries", "events", "compiled ns/ev", "map ns/ev", "speedup", "agree"},
		Rows:   rows,
	}
}

// e23ShardedServing measures the serve package's multi-document layer: a
// corpus of generated documents, pre-interned against the engine alphabet,
// is answered by the same 8-query engine three ways — serially (one
// engine.Run per document on one goroutine), by a naive goroutine-per-
// document fan-out (unbounded concurrency, sessions from the engine pool),
// and through a serve.Pool at 1–16 shards (bounded queues, one checked-out
// session and one reusable tokenizer per shard).  Every mode must produce
// identical verdict sets; the speedup columns report corpus wall-clock
// against the serial baseline.  Throughput scales with GOMAXPROCS — on a
// single-core machine all three modes collapse to the same automaton
// work, which is exactly the point: the pool adds sharding without adding
// per-document overhead.
func e23ShardedServing(docs, size int) Table {
	alpha := alphabet.New(e21Labels...)
	names, queries := E21Queries(alpha, 8)
	eng := dnwaEngine(names, queries)
	// Materialize and intern the corpus once, so every serving mode measures
	// automaton work rather than document generation.
	corpus := make([][]docstream.Event, docs)
	totalEvents := 0
	for d := range corpus {
		stream := generator.NewDocumentStream(int64(e21Seed+d), size, 24, e21Labels)
		for {
			e, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				panic(err)
			}
			corpus[d] = append(corpus[d], e.Interned(alpha))
		}
		totalEvents += len(corpus[d])
	}
	const reps = 3

	// Serial baseline: one pass per document, one goroutine.
	serialVerdicts := make([][]bool, docs)
	var serial time.Duration
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for d := range corpus {
			r, err := eng.Run(engine.Events(corpus[d]))
			if err != nil {
				panic(err)
			}
			if rep == 0 {
				serialVerdicts[d] = r.Verdicts
			}
		}
		if dd := time.Since(t0); rep == 0 || dd < serial {
			serial = dd
		}
	}

	// Naive fan-out: one goroutine per document, concurrency unbounded.
	var naive time.Duration
	naiveAgree := true
	for rep := 0; rep < reps; rep++ {
		verdicts := make([][]bool, docs)
		var wg sync.WaitGroup
		t0 := time.Now()
		for d := range corpus {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				r, err := eng.Run(engine.Events(corpus[d]))
				if err != nil {
					panic(err)
				}
				verdicts[d] = r.Verdicts
			}(d)
		}
		wg.Wait()
		if dd := time.Since(t0); rep == 0 || dd < naive {
			naive = dd
		}
		if rep == 0 {
			for d := range verdicts {
				for q := range verdicts[d] {
					if verdicts[d][q] != serialVerdicts[d][q] {
						naiveAgree = false
					}
				}
			}
		}
	}

	perEvent := func(d time.Duration) string {
		return ftoa(float64(d.Nanoseconds()) / float64(totalEvents))
	}
	rows := [][]string{}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		pool, err := serve.NewPool(eng, serve.WithShards(shards))
		if err != nil {
			panic(err)
		}
		agree := naiveAgree
		var pooled time.Duration
		for rep := 0; rep < reps; rep++ {
			futures := make([]*serve.Future, docs)
			t0 := time.Now()
			for d := range corpus {
				futures[d], err = pool.SubmitEvents(context.Background(), fmt.Sprintf("doc-%d", d), corpus[d])
				if err != nil {
					panic(err)
				}
			}
			for d, f := range futures {
				res, err := f.Wait(context.Background())
				if err != nil {
					panic(err)
				}
				if rep == 0 {
					for q, v := range res.Engine.Verdicts {
						if v != serialVerdicts[d][q] {
							agree = false
						}
					}
				}
			}
			if dd := time.Since(t0); rep == 0 || dd < pooled {
				pooled = dd
			}
		}
		if err := pool.Close(); err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			itoa(shards), itoa(docs), itoa(totalEvents),
			perEvent(serial), perEvent(naive), perEvent(pooled),
			ftoa(float64(serial) / float64(pooled)),
			ftoa(float64(serial) / float64(naive)),
			btoa(agree),
		})
	}
	return Table{
		Name:   "E23 (serve): sharded pool vs serial vs goroutine-per-document, same 8-query engine",
		Header: []string{"shards", "docs", "events", "serial ns/ev", "naive ns/ev", "pool ns/ev", "pool speedup", "naive speedup", "agree"},
		Rows:   rows,
	}
}

// e25QuerySpecs builds a deterministic family of n distinct deterministic
// queries over the three-letter alphabet — path, linear-order, longer path,
// and well-formedness variants cycling through label combinations — large
// enough for the 1–64-query cold-start sweep.
func e25QuerySpecs(alpha *alphabet.Alphabet, n int) (names []string, queries []*nwa.DNWA) {
	ls := e21Labels
	for i := 0; i < n; i++ {
		a, b, c := ls[i%3], ls[(i/3)%3], ls[(i/9)%3]
		var name string
		var d *nwa.DNWA
		switch i % 4 {
		case 0:
			name, d = fmt.Sprintf("#%d //%s//%s", i, a, b), query.PathQuery(alpha, a, b)
		case 1:
			name, d = fmt.Sprintf("#%d order %s,%s,%s", i, a, b, c), query.LinearOrder(alpha, a, b, c)
		case 2:
			name, d = fmt.Sprintf("#%d //%s//%s//%s", i, a, b, c), query.PathQuery(alpha, a, b, c)
		default:
			name, d = fmt.Sprintf("#%d well-formed", i), query.WellFormed(alpha)
		}
		names = append(names, name)
		queries = append(queries, d)
	}
	return names, queries
}

// e25Boot times one cold boot repeatedly — build an engine ready to serve —
// and returns the fastest attempt's engine and duration.
func e25Boot(boot func() *engine.Engine) (*engine.Engine, time.Duration) {
	const reps = 3
	var best time.Duration
	var eng *engine.Engine
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		e := boot()
		if d := time.Since(t0); rep == 0 || d < best {
			best, eng = d, e
		}
	}
	return eng, best
}

// e25ColdStart measures the serialized query-set cold-start path against
// per-process compilation: for 1–maxQueries queries, the time to construct
// and compile the automata into a ready engine versus the time to decode a
// bundle artifact from memory (query.UnmarshalBundle, copying the tables)
// or to open the artifact file end to end (query.OpenBundle: open, mmap
// where available, zero-copy validation with the tables aliasing the
// mapped pages — exactly what `nwserve -queryset` pays, page faults
// included).  The bundle is built and written once outside the timed
// region, as `nwtool compile` writes it once for a whole fleet.  Every
// booted engine must answer a generated document with identical verdicts;
// the speedup column is the mmap open vs parse+compile.
func e25ColdStart(maxQueries int) Table {
	alpha := alphabet.New(e21Labels...)
	dir, err := os.MkdirTemp("", "e25-bundles-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	rows := [][]string{}
	for _, n := range []int{1, 4, 16, 64} {
		if n > maxQueries {
			continue
		}
		compiledEng, compile := e25Boot(func() *engine.Engine {
			return dnwaEngine(e25QuerySpecs(alpha, n))
		})

		names, ds := e25QuerySpecs(alpha, n)
		bundle := query.NewBundle(alpha)
		for i, d := range ds {
			if err := bundle.Add(names[i], query.Compile(d)); err != nil {
				panic(err)
			}
		}
		data := bundle.Marshal()
		path := filepath.Join(dir, fmt.Sprintf("bundle-%d.nwq", n))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			panic(err)
		}

		loadedEng, load := e25Boot(func() *engine.Engine {
			b, err := query.UnmarshalBundle(data)
			if err != nil {
				panic(err)
			}
			eng := engine.New()
			if _, err := eng.RegisterBundle(b); err != nil {
				panic(err)
			}
			return eng
		})
		// The mmap side times the whole OpenBundle file path; the mappings
		// stay open until the verdict check below has run against their
		// tables.
		var openBundles []*query.Bundle
		mappedEng, mapped := e25Boot(func() *engine.Engine {
			b, err := query.OpenBundle(path)
			if err != nil {
				panic(err)
			}
			openBundles = append(openBundles, b)
			eng := engine.New()
			if _, err := eng.RegisterBundle(b); err != nil {
				panic(err)
			}
			return eng
		})

		agree := true
		stream := func() *generator.DocumentStream {
			return generator.NewDocumentStream(e21Seed, 20000, 16, e21Labels)
		}
		want, err := compiledEng.Run(stream())
		if err != nil {
			panic(err)
		}
		for _, eng := range []*engine.Engine{loadedEng, mappedEng} {
			got, err := eng.Run(stream())
			if err != nil {
				panic(err)
			}
			for q := range want.Verdicts {
				if got.Verdicts[q] != want.Verdicts[q] {
					agree = false
				}
			}
		}
		for _, b := range openBundles {
			if err := b.Close(); err != nil {
				panic(err)
			}
		}

		us := func(d time.Duration) string { return ftoa(float64(d.Nanoseconds()) / 1e3) }
		rows = append(rows, []string{
			itoa(n), ftoa(float64(len(data)) / 1024),
			us(compile), us(load), us(mapped),
			ftoa(float64(compile) / float64(mapped)), btoa(agree),
		})
	}
	return Table{
		Name:   "E25 (qset): bundle load / mmap cold start vs parse+compile, same ready-to-serve engine",
		Header: []string{"queries", "bundle KB", "compile µs", "load µs", "mmap µs", "speedup", "agree"},
		Rows:   rows,
	}
}

// Experiment is one entry of the experiment registry.  Run computes the
// table at the full parameters (the default `nwbench` run and the root
// BenchmarkExperiments); Quick computes it at the smaller `nwbench -quick`
// parameters, and a nil Quick leaves the experiment out of the quick run.
// Artifact marks the serving-stack experiments whose tables `nwbench -json`
// records as BENCH_<ID>.json, the files scripts/benchcmp gates on.
type Experiment struct {
	ID       string
	Summary  string
	Run      func() Table
	Quick    func() Table
	Artifact bool
}

// Registry lists every experiment in ID order.  It is the one list of
// experiments: cmd/nwbench, the root Go benchmarks and scripts/nwvet's
// checks of the docs/EXPERIMENTS.md index and the committed BENCH_E*.json
// baselines all derive from it.
var Registry = []Experiment{
	{ID: "E1", Summary: "nested-word and tree-word encodings round-trip (Figure 1)",
		Run: e01Encodings, Quick: e01Encodings},
	{ID: "E2", Summary: "weak NWA conversion stays within the s(|Σ|+1) state bound (Theorem 1)",
		Run: e02WeakConversion},
	{ID: "E3", Summary: "flat NWAs coincide with word DFAs over the tagged alphabet (Theorem 2)",
		Run: e03FlatEquivalence},
	{ID: "E4", Summary: "NWAs with O(s) states vs minimal word DFAs with ≥2^s states (Theorem 3)",
		Run:   func() Table { return e04NWAvsDFA(10) },
		Quick: func() Table { return e04NWAvsDFA(6) }},
	{ID: "E5", Summary: "bottom-up conversion: reachable states vs the s^s·|Σ| bound (Theorem 4)",
		Run: e05BottomUpConversion},
	{ID: "E6", Summary: "flat NWAs O(s²) vs ≥2^s congruence classes for bottom-up NWAs (Theorem 5)",
		Run:   func() Table { return e06FlatVsBottomUp(8) },
		Quick: func() Table { return e06FlatVsBottomUp(5) }},
	{ID: "E7", Summary: "a conjunction query needs a join; an NWA product answers it (Theorem 6)",
		Run: e07JoinlessSeparation},
	{ID: "E8", Summary: "nondeterministic joinless NWAs with O(s²|Σ|) states (Theorem 7)",
		Run: e08JoinlessConversion},
	{ID: "E9", Summary: "path family: NWA O(s) vs deterministic tree automata ≥2^s (Theorem 8)",
		Run:   func() Table { return e09PathSuccinctness(10) },
		Quick: func() Table { return e09PathSuccinctness(6) }},
	{ID: "E10", Summary: "linear-order query: linear DFA/flat NWA vs ≥2^n bottom-up classes (introduction)",
		Run:   func() Table { return e10LinearOrderQuery(8) },
		Quick: func() Table { return e10LinearOrderQuery(5) }},
	{ID: "E11", Summary: "tree automata embed into bottom-up / top-down NWAs (Lemmas 1–3)",
		Run: e11TreeAutomataEmbedding},
	{ID: "E12", Summary: "pushdown word automata embed into pushdown NWAs (Lemma 4)",
		Run: e12PDAEmbedding},
	{ID: "E13", Summary: "a context-free tree language as a PTA and as a pushdown NWA (Lemma 5)",
		Run: e13PTAEmbedding},
	{ID: "E14", Summary: "equal-count language on stem and full-binary-tree families (Theorem 9)",
		Run: func() Table { return e14CountingSeparation(6) }},
	{ID: "E15", Summary: "CNF satisfiability via pushdown-NWA membership vs DPLL (Theorem 10)",
		Run: e15MembershipNPReduction, Quick: e15MembershipNPReduction},
	{ID: "E16", Summary: "pushdown-NWA emptiness by summary saturation (Theorem 11)",
		Run: e16PNWAEmptiness},
	{ID: "E17", Summary: "determinization: reachable states vs the 2^(s²)(|Σ|+1)+1 bound (Section 3.2)",
		Run: e17Determinization},
	{ID: "E19", Summary: "membership is single-pass with stack bounded by depth (Section 3.2)",
		Run: e19DecisionProcedures},
	{ID: "E20", Summary: "streaming documents as nested words, memory bounded by depth (Section 1)",
		Run: e20Streaming},
	{ID: "E21", Summary: "engine: N simultaneous queries in one pass vs one re-scan per query",
		Run:      func() Table { return e21MultiQueryStreaming(1000000, 32) },
		Quick:    func() Table { return e21MultiQueryStreaming(100000, 24) },
		Artifact: true},
	{ID: "E22", Summary: "query API: compiled dense tables + interned symbols vs map-keyed stepping",
		Run:      func() Table { return e22CompiledVsMap(1000000, 32) },
		Quick:    func() Table { return e22CompiledVsMap(100000, 24) },
		Artifact: true},
	{ID: "E23", Summary: "serve: sharded multi-document pool vs serial and goroutine-per-document",
		Run:      func() Table { return e23ShardedServing(200, 5000) },
		Quick:    func() Table { return e23ShardedServing(50, 1000) },
		Artifact: true},
	{ID: "E25", Summary: "qset: serialized bundle load / mmap cold start vs parse+compile, 1–64 queries",
		Run:      func() Table { return e25ColdStart(64) },
		Quick:    func() Table { return e25ColdStart(64) },
		Artifact: true},
	{ID: "E27", Summary: "adapter: XML/JSON/trace decode throughput vs the native tokenizer",
		Run:      func() Table { return e27AdapterThroughput(200000) },
		Quick:    func() Table { return e27AdapterThroughput(50000) },
		Artifact: true},
	{ID: "E28", Summary: "plan: product-compiled query clusters vs fan-out, state-budget fallback at 16 queries",
		Run:      func() Table { return e28ProductCompilation(300000) },
		Quick:    func() Table { return e28ProductCompilation(60000) },
		Artifact: true},
}

// --- helpers -----------------------------------------------------------

func randomDNWA(rng *rand.Rand, n int) *nwa.DNWA {
	b := nwa.NewDNWABuilder(generator.AB, n)
	b.SetStart(rng.Intn(n))
	for q := 0; q < n; q++ {
		if rng.Intn(2) == 0 {
			b.SetAccept(q)
		}
		for _, sym := range []string{"a", "b"} {
			b.Internal(q, sym, rng.Intn(n))
			b.Call(q, sym, rng.Intn(n), rng.Intn(n))
		}
	}
	for lin := 0; lin < n; lin++ {
		for hier := 0; hier < n; hier++ {
			for _, sym := range []string{"a", "b"} {
				b.Return(lin, hier, sym, rng.Intn(n))
			}
		}
	}
	return b.Build()
}

func randomNNWA(rng *rand.Rand, n int) *nwa.NNWA {
	a := nwa.NewNNWA(generator.AB, n)
	a.AddStart(rng.Intn(n))
	a.AddAccept(rng.Intn(n))
	edges := 2 + rng.Intn(4*n)
	for i := 0; i < edges; i++ {
		sym := []string{"a", "b"}[rng.Intn(2)]
		switch rng.Intn(3) {
		case 0:
			a.AddInternal(rng.Intn(n), sym, rng.Intn(n))
		case 1:
			a.AddCall(rng.Intn(n), sym, rng.Intn(n), rng.Intn(n))
		default:
			a.AddReturn(rng.Intn(n), rng.Intn(n), sym, rng.Intn(n))
		}
	}
	return a
}

func containsAPredicate(n *nestedword.NestedWord) bool {
	for i := 0; i < n.Len(); i++ {
		if n.SymbolAt(i) == "a" {
			return true
		}
	}
	return false
}

func wellFormedPredicate(n *nestedword.NestedWord) bool {
	if !n.IsWellMatched() {
		return false
	}
	for i := 0; i < n.Len(); i++ {
		if n.KindAt(i) == nestedword.Call {
			j, _ := n.ReturnSuccessor(i)
			if n.SymbolAt(j) != n.SymbolAt(i) {
				return false
			}
		}
	}
	return true
}

// balancedTagPDA accepts tagged words over {<a, a, a>} with balanced calls
// and returns (internals anywhere).
func balancedTagPDA() *pda.PDA {
	tagged := alphabet.New("<a", "a", "a>")
	p := pda.New(tagged, 4)
	const ready, afterOpen, afterShut, done = 0, 1, 2, 3
	p.AddStart(ready)
	p.AddRead(ready, "<a", afterOpen)
	p.AddPush(afterOpen, ready, "X")
	p.AddRead(ready, "a", ready)
	p.AddRead(ready, "a>", afterShut)
	p.AddPop(afterShut, "X", ready)
	p.AddPopBottom(ready, done)
	return p
}

func taggedStrings(n *nestedword.NestedWord) []string {
	out := make([]string, n.Len())
	for i := 0; i < n.Len(); i++ {
		switch n.KindAt(i) {
		case nestedword.Call:
			out[i] = "<" + n.SymbolAt(i)
		case nestedword.Return:
			out[i] = n.SymbolAt(i) + ">"
		default:
			out[i] = n.SymbolAt(i)
		}
	}
	return out
}

// stemCounterPTA accepts the trees c^n(d^n(e)).
func stemCounterPTA() *pta.PTA {
	alpha := alphabet.New("c", "d", "e")
	p := pta.New(alpha)
	const readC, pushed, readD, popped, leaf = 0, 1, 2, 3, 4
	p.AddStart(readC)
	p.AddUnary(readC, "c", pushed)
	p.AddPush(pushed, readC, "X")
	p.AddUnary(readC, "d", popped)
	p.AddUnary(readD, "d", popped)
	p.AddPop(popped, "X", readD)
	p.AddLeaf(readC, "e", leaf)
	p.AddLeaf(readD, "e", leaf)
	p.AddPopBottom(leaf, leaf)
	return p
}

// stemCounterPNWA accepts the tree words of c^n(d^n(e)) by running the
// corresponding pushdown word automaton over the tagged encoding (the
// Lemma 4/5 route to a pushdown NWA for this context-free tree language).
func stemCounterPNWA() *pnwa.PNWA {
	alpha := alphabet.New("c", "d", "e")
	tagged := alphabet.New("<c", "c", "c>", "<d", "d", "d>", "<e", "e", "e>")
	p := pda.New(tagged, 7)
	const downC, pushed, downD, popped, leafIn, up, done = 0, 1, 2, 3, 4, 5, 6
	p.AddStart(downC)
	// One X per opening c; each opening d pops one X, so the counts must
	// match for the stack to reach ⊥ exactly when the leaf is read.
	p.AddRead(downC, "<c", pushed)
	p.AddPush(pushed, downC, "X")
	p.AddRead(downC, "<d", popped)
	p.AddRead(downD, "<d", popped)
	p.AddPop(popped, "X", downD)
	p.AddRead(downC, "<e", leafIn)
	p.AddRead(downD, "<e", leafIn)
	p.AddRead(leafIn, "e>", up)
	p.AddRead(up, "d>", up)
	p.AddRead(up, "c>", up)
	p.AddPopBottom(up, done)
	return pnwa.FromPDA(p, alpha)
}

// stemTree builds c^n(d^m(e)).
func stemTree(n, m int) *tree.Tree {
	t := tree.Leaf("e")
	for i := 0; i < m; i++ {
		t = tree.New("d", t)
	}
	for i := 0; i < n; i++ {
		t = tree.New("c", t)
	}
	return t
}
