package pnwa

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/pda"
	"repro/internal/sat"
)

// AddPopBottom adds the ε-transition (from, ⊥ → to): popping the bottom
// symbol is how runs reach an empty stack.
func (p *PNWA) AddPopBottom(from, to int) *PNWA {
	p.pop[popKey{from, bottom}] = append(p.pop[popKey{from, bottom}], to)
	return p
}

// FromPDA implements Lemma 4: a pushdown word automaton over the tagged
// alphabet Σ̂ (with symbols "<a", "a", "a>") is a special case of a pushdown
// nested word automaton over Σ in which all states are linear.  Calls,
// internals and returns replay the PDA's read transitions on the
// corresponding tagged letter; hierarchical edges always carry an initial
// state so that the joinless linear-mode return rule applies at matched
// returns, and the stack behaviour is copied verbatim.
func FromPDA(machine *pda.PDA, alpha *alphabet.Alphabet) *PNWA {
	p := New(alpha, machine.NumStates())
	starts := machine.StartStates()
	p.AddStart(starts...)
	if len(starts) == 0 {
		return p
	}
	q0 := starts[0]
	for q := 0; q < machine.NumStates(); q++ {
		for _, sym := range alpha.Symbols() {
			for _, to := range machine.Reads(q, "<"+sym) {
				p.AddCall(q, sym, to, q0)
			}
			for _, to := range machine.Reads(q, sym) {
				p.AddInternal(q, sym, to)
			}
			for _, to := range machine.Reads(q, sym+">") {
				p.AddReturn(q, sym, to)
			}
		}
	}
	for _, tr := range machine.Pushes() {
		p.AddPush(tr.From, tr.To, tr.Gamma)
	}
	for _, tr := range machine.Pops() {
		if tr.Gamma == pda.Bottom {
			p.AddPopBottom(tr.From, tr.To)
			continue
		}
		p.AddPop(tr.From, tr.Gamma, tr.To)
	}
	return p
}

// EqualCounts builds the pushdown nested word automaton of Theorem 9 for the
// language of nested words over {a, b} with equally many a-labelled and
// b-labelled positions (of any kind: calls, internals, and returns all
// count).  The language is a context-free word language over the tagged
// alphabet but not a context-free tree language; the automaton below uses a
// single counter encoded on the stack (a surplus of "A" or of "B" symbols)
// and only linear states, so it is also the Lemma 4 image of the obvious
// pushdown word automaton.
func EqualCounts() *PNWA {
	alpha := alphabet.New("a", "b")
	p := New(alpha, 4)
	const (
		ready  = 0 // between positions; the stack encodes the current surplus
		afterA = 1 // an a-labelled position has just been read
		afterB = 2 // a b-labelled position has just been read
		done   = 3 // ⊥ has been popped
	)
	p.AddStart(ready)
	// Every position kind counts, and hierarchical edges carry the initial
	// state so matched returns use the linear-mode rule.
	p.AddInternal(ready, "a", afterA)
	p.AddInternal(ready, "b", afterB)
	p.AddCall(ready, "a", afterA, ready)
	p.AddCall(ready, "b", afterB, ready)
	p.AddReturn(ready, "a", afterA)
	p.AddReturn(ready, "b", afterB)
	// Counter updates: after an a, either push an A (surplus of a's grows)
	// or pop a B (surplus of b's shrinks); symmetrically for b.  Exactly one
	// ε-move happens before the next position because input transitions are
	// only defined from the ready state.
	p.AddPush(afterA, ready, "A")
	p.AddPop(afterA, "B", ready)
	p.AddPush(afterB, ready, "B")
	p.AddPop(afterB, "A", ready)
	// Accept by empty stack: the counter must be balanced so that only ⊥
	// remains.
	p.AddPopBottom(ready, done)
	return p
}

// equalCountsPredicate is the reference semantics of EqualCounts.
//
//nwvet:oracle TestEqualCountsAgainstPredicate holds EqualCounts to it
func equalCountsPredicate(n *nestedword.NestedWord) bool {
	a, b := 0, 0
	for i := 0; i < n.Len(); i++ {
		switch n.SymbolAt(i) {
		case "a":
			a++
		case "b":
			b++
		}
	}
	return a == b
}

// CNFMembershipInstance is the Theorem 10 reduction from CNF satisfiability
// to pushdown-NWA membership: for a formula φ with v variables and s
// clauses, the automaton A_φ and the nested word (⟨a a^v a⟩)^s satisfy
//
//	φ is satisfiable  ⟺  the word is in L(A_φ).
//
// The automaton first guesses a truth assignment by pushing one bit per
// variable; every call copies the configuration (and therefore the whole
// assignment) onto the hierarchical edge; the branch inside the c-th block
// pops the assignment while checking that clause c is satisfied and must end
// with an empty stack (the leaf-acceptance condition); the spine resumes
// after each block from the hierarchical edge, whose stack is the untouched
// assignment, and drains its stack after the last block.
type CNFMembershipInstance struct {
	Formula   *sat.Formula
	Automaton *PNWA
	Word      *nestedword.NestedWord
}

// NewCNFMembershipInstance builds the reduction for the given formula.
func NewCNFMembershipInstance(f *sat.Formula) *CNFMembershipInstance {
	alpha := alphabet.New("a")
	v := f.NumVars
	s := f.NumClauses()

	// State layout.  Linear states: the guessing chain guess(0..v) — with
	// guess(v) doubling as spine(0) — the spine states spine(c) counting how
	// many clause blocks have been completed, the per-block edge states
	// blockDone(c), the drain state, and the final done state.  Hierarchical
	// states (the clause-checking branches): check(c, j), sat(c, j), and
	// read(c, k).
	guess := func(i int) int { return i }
	spine := func(c int) int { return v + c } // spine(0) == guess(v)
	blockDone := func(c int) int { return v + s + 1 + c }
	drain := v + 2*s + 1
	done := drain + 1
	hierBase := done + 1
	perClause := 3 * (v + 1)
	check := func(c, j int) int { return hierBase + c*perClause + j }
	satTrack := func(c, j int) int { return hierBase + c*perClause + (v + 1) + j }
	read := func(c, k int) int { return hierBase + c*perClause + 2*(v+1) + k }
	total := hierBase + s*perClause

	p := New(alpha, total)
	for c := 0; c < s; c++ {
		for j := 0; j <= v; j++ {
			p.markHierarchical(check(c, j), satTrack(c, j), read(c, j))
		}
	}
	p.AddStart(guess(0))

	// Phase 1: guess the assignment with v ε-pushes.  Variables are pushed
	// in decreasing index order so that variable 1 ends on top and the
	// clause checkers pop variable 1 first.
	for i := 0; i < v; i++ {
		variable := v - i
		p.AddPush(guess(i), guess(i+1), bitSymbol(variable, true))
		p.AddPush(guess(i), guess(i+1), bitSymbol(variable, false))
	}

	for c := 0; c < s; c++ {
		clause := f.Clauses[c]
		// The c-th block's call: the branch checks clause c, the edge keeps
		// the assignment for the rest of the spine.  The spine counts blocks
		// so that the c-th block is forced to check the c-th clause.
		p.AddCall(spine(c), "a", check(c, 0), blockDone(c))
		// The branch first pops the whole assignment (ε-moves), switching to
		// the satisfied track as soon as a literal of clause c is satisfied.
		for j := 0; j < v; j++ {
			variable := j + 1
			for _, val := range []bool{true, false} {
				target := check(c, j+1)
				if clauseHasLiteral(clause, variable, val) {
					target = satTrack(c, j+1)
				}
				p.AddPop(check(c, j), bitSymbol(variable, val), target)
				p.AddPop(satTrack(c, j), bitSymbol(variable, val), satTrack(c, j+1))
			}
		}
		// Only a satisfied branch may pop ⊥ and start consuming the block's
		// v internal positions; an unsatisfied branch keeps a non-empty
		// stack and therefore can never be an accepting leaf.
		p.AddPopBottom(satTrack(c, v), read(c, 0))
		for k := 0; k < v; k++ {
			p.AddInternal(read(c, k), "a", read(c, k+1))
		}
		// The block's return resumes the spine from the hierarchical edge.
		p.AddReturn(blockDone(c), "a", spine(c+1))
	}

	// After the last block the spine drains its copy of the assignment and
	// pops ⊥ so the end configuration is empty.
	for variable := 1; variable <= v; variable++ {
		for _, val := range []bool{true, false} {
			p.AddPop(spine(s), bitSymbol(variable, val), drain)
			p.AddPop(drain, bitSymbol(variable, val), drain)
		}
	}
	p.AddPopBottom(spine(s), done)
	p.AddPopBottom(drain, done)

	return &CNFMembershipInstance{Formula: f, Automaton: p, Word: cNFWord(v, s)}
}

func bitSymbol(variable int, value bool) string {
	if value {
		return fmt.Sprintf("1@%d", variable)
	}
	return fmt.Sprintf("0@%d", variable)
}

func clauseHasLiteral(c sat.Clause, variable int, value bool) bool {
	for _, l := range c {
		if l.Var() == variable && l.Positive() == value {
			return true
		}
	}
	return false
}

// cNFWord builds the nested word (⟨a a^v a⟩)^s of the Theorem 10 reduction.
func cNFWord(v, s int) *nestedword.NestedWord {
	var ps []nestedword.Position
	for c := 0; c < s; c++ {
		ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Call})
		for i := 0; i < v; i++ {
			ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Internal})
		}
		ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Return})
	}
	return nestedword.New(ps...)
}

// Satisfiable answers the reduction's question through pushdown-NWA
// membership: it reports whether the reduction word is accepted by the
// reduction automaton, which holds iff the formula is satisfiable
// (Theorem 10).
func (inst *CNFMembershipInstance) Satisfiable() bool {
	// The stack never grows beyond the ⊥ + one bit per variable.
	return inst.Automaton.acceptsWithin(inst.Word, inst.Formula.NumVars+2)
}
