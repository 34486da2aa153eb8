// Package pta implements top-down pushdown tree automata, the "trees"
// baseline of Section 4 of "Marrying Words and Trees" (Alur, PODS 2007).
//
// A pushdown tree automaton runs top-down over an ordered tree.
// Configurations pair a state with a stack; the stack is updated only by ε
// push/pop moves; at a node the configuration passes to the child; the tree
// is accepted when its leaf configuration can reach an empty stack.  The
// automaton reads leaves and unary nodes, the stems the experiments measure
// it on.
package pta

import (
	"strconv"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/tree"
)

// Bottom is the reserved bottom-of-stack symbol ⊥.
const bottom = "⊥"

type popKey struct {
	state int
	gamma string
}

type pushTarget struct {
	state int
	gamma string
}

// PTA is a nondeterministic top-down pushdown tree automaton.
type PTA struct {
	alpha  *alphabet.Alphabet
	starts map[int]bool
	// leaf[(q, sym)] — state q may finish on a sym-labelled leaf, moving to
	// the listed states (whose configurations must then empty their stacks).
	leaf map[[2]int][]int
	// unary[(q, sym)] — successors for the single child.
	unary map[[2]int][]int
	push  map[int][]pushTarget
	pop   map[popKey][]int
}

// New creates an empty PTA over the given alphabet; states are the ints the
// transitions name.
func New(alpha *alphabet.Alphabet) *PTA {
	return &PTA{
		alpha:  alpha,
		starts: make(map[int]bool),
		leaf:   make(map[[2]int][]int),
		unary:  make(map[[2]int][]int),
		push:   make(map[int][]pushTarget),
		pop:    make(map[popKey][]int),
	}
}

// AddStart marks states as initial.
func (p *PTA) AddStart(states ...int) *PTA {
	for _, q := range states {
		p.starts[q] = true
	}
	return p
}

// AddLeaf adds the leaf transition (q, sym → q'): a sym-labelled leaf read
// in state q moves to q', whose configuration must then empty its stack.
func (p *PTA) AddLeaf(q int, sym string, to int) *PTA {
	k := [2]int{q, p.alpha.MustIndex(sym)}
	p.leaf[k] = append(p.leaf[k], to)
	return p
}

// AddUnary adds the transition (q, sym → child) for nodes with one child.
func (p *PTA) AddUnary(q int, sym string, child int) *PTA {
	k := [2]int{q, p.alpha.MustIndex(sym)}
	p.unary[k] = append(p.unary[k], child)
	return p
}

// AddPush adds the ε-transition (from → to, push gamma).
func (p *PTA) AddPush(from, to int, gamma string) *PTA {
	if gamma == bottom {
		panic("pta: pushing the bottom symbol is not allowed")
	}
	p.push[from] = append(p.push[from], pushTarget{state: to, gamma: gamma})
	return p
}

// AddPop adds the ε-transition (from, gamma → to).
func (p *PTA) AddPop(from int, gamma string, to int) *PTA {
	p.pop[popKey{from, gamma}] = append(p.pop[popKey{from, gamma}], to)
	return p
}

// AddPopBottom adds the ε-transition (from, ⊥ → to).
func (p *PTA) AddPopBottom(from, to int) *PTA {
	p.pop[popKey{from, bottom}] = append(p.pop[popKey{from, bottom}], to)
	return p
}

// config pairs a state with a stack string (symbols are '\x00'-terminated).
type config struct {
	state int
	stack string
}

func pushStack(stack, gamma string) string { return stack + gamma + "\x00" }

func topStack(stack string) (gamma string, rest string, ok bool) {
	if stack == "" {
		return "", "", false
	}
	i := len(stack) - 1
	j := i - 1
	for j >= 0 && stack[j] != '\x00' {
		j--
	}
	return stack[j+1 : i], stack[:j+1], true
}

func stackHeight(stack string) int {
	h := 0
	for i := 0; i < len(stack); i++ {
		if stack[i] == '\x00' {
			h++
		}
	}
	return h
}

// Accepts reports whether the automaton accepts the (non-empty) tree,
// exploring stacks up to height size(t) + 2.
func (p *PTA) Accepts(t *tree.Tree) bool {
	if t == nil {
		return false
	}
	return p.acceptsWithin(t, t.Size()+2)
}

// acceptsWithin is Accepts with an explicit bound on the stack height.
func (p *PTA) acceptsWithin(t *tree.Tree, maxStack int) bool {
	m := &matcher{p: p, maxStack: maxStack, memo: make(map[string]bool)}
	for q := range p.starts {
		if m.node(t, config{state: q, stack: pushStack("", bottom)}) {
			return true
		}
	}
	return false
}

type matcher struct {
	p        *PTA
	maxStack int
	memo     map[string]bool
}

func (m *matcher) epsClosure(c config) map[config]bool {
	out := map[config]bool{c: true}
	stack := []config{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stackHeight(cur.stack) < m.maxStack {
			for _, pg := range m.p.push[cur.state] {
				next := config{state: pg.state, stack: pushStack(cur.stack, pg.gamma)}
				if !out[next] {
					out[next] = true
					stack = append(stack, next)
				}
			}
		}
		if gamma, rest, ok := topStack(cur.stack); ok {
			for _, to := range m.p.pop[popKey{cur.state, gamma}] {
				next := config{state: to, stack: rest}
				if !out[next] {
					out[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	return out
}

// node reports whether the subtree rooted at t has an accepting run starting
// from cfg (all leaf configurations reach an empty stack).
func (m *matcher) node(t *tree.Tree, cfg config) bool {
	key := treeKey(t) + "|" + strconv.Itoa(cfg.state) + "|" + cfg.stack
	if v, ok := m.memo[key]; ok {
		return v
	}
	m.memo[key] = false // cycles are impossible; this is a plain cache seed
	si, ok := m.p.alpha.Index(t.Label)
	result := false
	if ok {
		for c := range m.epsClosure(cfg) {
			switch len(t.Children) {
			case 0:
				for _, to := range m.p.leaf[[2]int{c.state, si}] {
					if m.canEmpty(config{state: to, stack: c.stack}) {
						result = true
					}
				}
			case 1:
				for _, child := range m.p.unary[[2]int{c.state, si}] {
					if m.node(t.Children[0], config{state: child, stack: c.stack}) {
						result = true
					}
				}
			}
			if result {
				break
			}
		}
	}
	m.memo[key] = result
	return result
}

// canEmpty reports whether the configuration can reach an empty stack by
// ε-moves alone.
func (m *matcher) canEmpty(c config) bool {
	for cc := range m.epsClosure(c) {
		if cc.stack == "" {
			return true
		}
	}
	return false
}

// treeKey is a structural key for memoization (trees are immutable in the
// matcher's usage).
func treeKey(t *tree.Tree) string {
	var b strings.Builder
	var walk func(*tree.Tree)
	walk = func(u *tree.Tree) {
		if u == nil {
			return
		}
		b.WriteString(u.Label)
		b.WriteByte('(')
		for _, c := range u.Children {
			walk(c)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	walk(t)
	return b.String()
}
