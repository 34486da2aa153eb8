// Package sat provides CNF formulas and a small DPLL satisfiability solver.
//
// It exists to cross-check the NP-hardness reduction of Theorem 10 of
// "Marrying Words and Trees": satisfiability of a CNF formula is reduced to
// membership of the nested word (⟨a a^v a⟩)^s in the language of a pushdown
// nested word automaton (see the pnwa package).  The solver answers the same
// question directly so the reduction can be validated on random instances.
package sat

import (
	"fmt"
	"math/rand"
	"strings"
)

// Literal is a CNF literal: a 1-based variable index, negative for negated
// occurrences (the DIMACS convention).
type Literal int

// Var returns the 1-based variable index of the literal.
func (l Literal) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is positive.
func (l Literal) Positive() bool { return l > 0 }

// Clause is a disjunction of literals.
type Clause []Literal

// Formula is a CNF formula over variables 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New creates a formula with the given number of variables and clauses.
// It panics if a clause mentions a variable outside 1..numVars, which
// indicates a construction bug.
func New(numVars int, clauses ...Clause) *Formula {
	for _, c := range clauses {
		for _, l := range c {
			if l == 0 || l.Var() > numVars {
				panic(fmt.Sprintf("sat: literal %d out of range for %d variables", l, numVars))
			}
		}
	}
	return &Formula{NumVars: numVars, Clauses: clauses}
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// eval evaluates the formula under a complete assignment (assignment[i] is
// the value of variable i+1).
func (f *Formula) eval(assignment []bool) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			v := assignment[l.Var()-1]
			if v == l.Positive() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// String renders the formula in a compact human-readable form.
func (f *Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		lits := make([]string, len(c))
		for j, l := range c {
			if l.Positive() {
				lits[j] = fmt.Sprintf("x%d", l.Var())
			} else {
				lits[j] = fmt.Sprintf("¬x%d", l.Var())
			}
		}
		parts[i] = "(" + strings.Join(lits, "∨") + ")"
	}
	return strings.Join(parts, "∧")
}

// solve decides satisfiability with DPLL (unit propagation + splitting) and
// returns a satisfying assignment when one exists.
func (f *Formula) solve() ([]bool, bool) {
	assignment := make([]int8, f.NumVars) // 0 unassigned, 1 true, -1 false
	if !dpll(f, assignment) {
		return nil, false
	}
	out := make([]bool, f.NumVars)
	for i, v := range assignment {
		out[i] = v >= 0 // unassigned variables default to true
	}
	return out, true
}

// Satisfiable reports whether the formula has a satisfying assignment.
func (f *Formula) Satisfiable() bool {
	_, ok := f.solve()
	return ok
}

func dpll(f *Formula, assignment []int8) bool {
	// Unit propagation.
	for {
		unitFound := false
		for _, c := range f.Clauses {
			satisfied := false
			unassigned := 0
			var lastLit Literal
			for _, l := range c {
				switch value(assignment, l) {
				case 1:
					satisfied = true
				case 0:
					unassigned++
					lastLit = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if unassigned == 0 {
				return false // conflict
			}
			if unassigned == 1 {
				assign(assignment, lastLit)
				unitFound = true
			}
		}
		if !unitFound {
			break
		}
	}
	// Pick an unassigned variable to split on.
	split := -1
	for i, v := range assignment {
		if v == 0 {
			split = i
			break
		}
	}
	if split == -1 {
		// Complete assignment: verify (propagation guarantees no falsified
		// clause remains, but the check is cheap and guards against bugs).
		full := make([]bool, len(assignment))
		for i, v := range assignment {
			full[i] = v > 0
		}
		return f.eval(full)
	}
	for _, try := range []int8{1, -1} {
		next := make([]int8, len(assignment))
		copy(next, assignment)
		next[split] = try
		if dpll(f, next) {
			copy(assignment, next)
			return true
		}
	}
	return false
}

func value(assignment []int8, l Literal) int8 {
	v := assignment[l.Var()-1]
	if v == 0 {
		return 0
	}
	if (v > 0) == l.Positive() {
		return 1
	}
	return -1
}

func assign(assignment []int8, l Literal) {
	if l.Positive() {
		assignment[l.Var()-1] = 1
	} else {
		assignment[l.Var()-1] = -1
	}
}

// Random3CNF generates a random 3-CNF formula with the given number of
// variables and clauses, using the supplied random source.  Clauses use
// three distinct variables when numVars ≥ 3.
func Random3CNF(rng *rand.Rand, numVars, numClauses int) *Formula {
	clauses := make([]Clause, numClauses)
	for i := range clauses {
		vars := rng.Perm(numVars)
		k := 3
		if numVars < 3 {
			k = numVars
		}
		clause := make(Clause, 0, k)
		for j := 0; j < k; j++ {
			lit := Literal(vars[j] + 1)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			clause = append(clause, lit)
		}
		clauses[i] = clause
	}
	return New(numVars, clauses...)
}
