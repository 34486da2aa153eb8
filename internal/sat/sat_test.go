package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLiteralHelpers(t *testing.T) {
	if Literal(3).Var() != 3 || Literal(-3).Var() != 3 {
		t.Errorf("Var broken")
	}
	if !Literal(3).Positive() || Literal(-3).Positive() {
		t.Errorf("Positive broken")
	}
}

func TestEvalAndString(t *testing.T) {
	f := New(2, Clause{1, -2}, Clause{2})
	if !f.eval([]bool{true, true}) {
		t.Errorf("x1=1,x2=1 should satisfy (x1∨¬x2)∧(x2)")
	}
	if f.eval([]bool{false, false}) {
		t.Errorf("x1=0,x2=0 should falsify the second clause")
	}
	if f.NumClauses() != 2 {
		t.Errorf("NumClauses broken")
	}
	if f.String() != "(x1∨¬x2)∧(x2)" {
		t.Errorf("String = %q", f.String())
	}
}

func TestNewPanicsOnBadLiteral(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range literal should panic")
		}
	}()
	New(1, Clause{2})
}

func TestSolveSimpleSat(t *testing.T) {
	f := New(3, Clause{1, 2}, Clause{-1, 3}, Clause{-2, -3})
	model, ok := f.solve()
	if !ok {
		t.Fatalf("formula is satisfiable")
	}
	if !f.eval(model) {
		t.Errorf("returned model %v does not satisfy the formula", model)
	}
	if !f.Satisfiable() {
		t.Errorf("Satisfiable should agree with Solve")
	}
}

func TestSolveUnsat(t *testing.T) {
	// (x1)(¬x1) is unsatisfiable; also the classic 2-variable full cube.
	if New(1, Clause{1}, Clause{-1}).Satisfiable() {
		t.Errorf("(x1)∧(¬x1) is unsatisfiable")
	}
	f := New(2, Clause{1, 2}, Clause{1, -2}, Clause{-1, 2}, Clause{-1, -2})
	if f.Satisfiable() {
		t.Errorf("the full 2-variable cube of clauses is unsatisfiable")
	}
}

func TestEmptyFormulaAndEmptyClause(t *testing.T) {
	if !New(2).Satisfiable() {
		t.Errorf("a formula with no clauses is trivially satisfiable")
	}
	if New(2, Clause{}).Satisfiable() {
		t.Errorf("a formula containing the empty clause is unsatisfiable")
	}
}

func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		numVars := 1 + rng.Intn(6)
		f := Random3CNF(rng, numVars, 1+rng.Intn(12))
		want := bruteForce(f)
		if got := f.Satisfiable(); got != want {
			t.Fatalf("trial %d: DPLL=%v brute=%v for %v", trial, got, want, f)
		}
	}
}

func TestQuickSolveModelSatisfies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		formula := Random3CNF(rng, 2+rng.Intn(6), 1+rng.Intn(10))
		model, ok := formula.solve()
		if !ok {
			return !bruteForce(formula)
		}
		return formula.eval(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRandom3CNFShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := Random3CNF(rng, 5, 10)
	if f.NumVars != 5 || f.NumClauses() != 10 {
		t.Fatalf("unexpected shape: %d vars, %d clauses", f.NumVars, f.NumClauses())
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Errorf("clause %v should have 3 literals", c)
		}
		seen := map[int]bool{}
		for _, l := range c {
			if seen[l.Var()] {
				t.Errorf("clause %v repeats a variable", c)
			}
			seen[l.Var()] = true
		}
	}
	small := Random3CNF(rng, 2, 3)
	for _, c := range small.Clauses {
		if len(c) != 2 {
			t.Errorf("with 2 variables clauses should have 2 literals, got %v", c)
		}
	}
}

func bruteForce(f *Formula) bool {
	n := f.NumVars
	for mask := 0; mask < 1<<n; mask++ {
		assignment := make([]bool, n)
		for i := 0; i < n; i++ {
			assignment[i] = mask&(1<<i) != 0
		}
		if f.eval(assignment) {
			return true
		}
	}
	return false
}
