package alphabet

import (
	"reflect"
	"testing"
)

func TestNewDeduplicates(t *testing.T) {
	a := New("a", "b", "a", "c", "b")
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3", a.Size())
	}
	if got, want := a.Symbols(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Symbols = %v, want %v", got, want)
	}
}

func TestIndexAndSymbol(t *testing.T) {
	a := New("x", "y")
	if i, ok := a.Index("y"); !ok || i != 1 {
		t.Errorf("Index(y) = (%d,%v), want (1,true)", i, ok)
	}
	if _, ok := a.Index("z"); ok {
		t.Errorf("Index(z) should not be found")
	}
	if a.Symbol(0) != "x" {
		t.Errorf("Symbol(0) = %q, want x", a.Symbol(0))
	}
	if a.MustIndex("x") != 0 {
		t.Errorf("MustIndex(x) != 0")
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustIndex of an unknown symbol should panic")
		}
	}()
	New("a").MustIndex("b")
}

func TestEqualAndUnion(t *testing.T) {
	a := New("a", "b")
	b := New("a", "b")
	c := New("b", "a")
	if !a.Equal(b) {
		t.Errorf("identical alphabets should be Equal")
	}
	if a.Equal(c) {
		t.Errorf("order matters for Equal")
	}
}

func TestStringAndEmpty(t *testing.T) {
	if got := New("a", "b").String(); got != "{a,b}" {
		t.Errorf("String = %q", got)
	}
	e := New()
	if e.Size() != 0 || e.String() != "{}" {
		t.Errorf("empty alphabet broken")
	}
	if !e.Equal(New()) {
		t.Errorf("empty alphabets should be equal")
	}
}

func TestSymbolsCopy(t *testing.T) {
	a := New("a", "b")
	s := a.Symbols()
	s[0] = "mutated"
	if a.Symbol(0) != "a" {
		t.Errorf("Symbols must return a copy")
	}
}
