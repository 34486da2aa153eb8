// Package pta implements top-down pushdown tree automata, the "trees"
// baseline of Section 4 of "Marrying Words and Trees" (Alur, PODS 2007).
//
// A pushdown tree automaton runs top-down over an ordered tree (nodes of
// arity 0, 1, or 2 suffice for every example in the paper, including the
// stem-plus-full-binary-tree family of Figure 2).  Configurations pair a
// state with a stack; the stack is updated only by ε push/pop moves; at a
// node the configuration is copied to every child, each with its own copy of
// the stack; the tree is accepted when every leaf configuration can reach an
// empty stack.
//
// The emptiness check computes the summaries R(q, U) described in Section
// 4.4: R(q, U) holds when some tree has a run from (q, ε) whose leaf
// configurations all have empty stacks and states in U.  As the paper notes,
// a push can be matched by pops along multiple branches, which is what makes
// the procedure (and the problem) exponential.
package pta

import (
	"sort"
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
	num    int
	starts map[int]bool
	// leaf[(q, sym)] — state q may finish on a sym-labelled leaf, moving to
	// the listed states (whose configurations must then empty their stacks).
	leaf map[[2]int][]int
	// unary[(q, sym)] — successors for the single child.
	unary map[[2]int][]int
	// binary[(q, sym)] — (left, right) successor pairs.
	binary map[[2]int][][2]int
	push   map[int][]pushTarget
	pop    map[popKey][]int
}

// New creates an empty PTA over the given alphabet with numStates states.
func New(alpha *alphabet.Alphabet, numStates int) *PTA {
	return &PTA{
		alpha:  alpha,
		num:    numStates,
		starts: make(map[int]bool),
		leaf:   make(map[[2]int][]int),
		unary:  make(map[[2]int][]int),
		binary: make(map[[2]int][][2]int),
		push:   make(map[int][]pushTarget),
		pop:    make(map[popKey][]int),
	}
}

// numStates returns the number of states.
func (p *PTA) numStates() int { return p.num }

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

// addBinary adds the transition (q, sym → left, right) for nodes with two
// children.
func (p *PTA) addBinary(q int, sym string, left, right int) *PTA {
	k := [2]int{q, p.alpha.MustIndex(sym)}
	p.binary[k] = append(p.binary[k], [2]int{left, right})
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
			case 2:
				for _, lr := range m.p.binary[[2]int{c.state, si}] {
					if m.node(t.Children[0], config{state: lr[0], stack: c.stack}) &&
						m.node(t.Children[1], config{state: lr[1], stack: c.stack}) {
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

// stateSet is a canonical set of states.
type stateSet []int

func newStateSet(states ...int) stateSet {
	if len(states) == 0 {
		return nil
	}
	out := append(stateSet(nil), states...)
	sort.Ints(out)
	dedup := out[:1]
	for _, q := range out[1:] {
		if q != dedup[len(dedup)-1] {
			dedup = append(dedup, q)
		}
	}
	return dedup
}

func (s stateSet) union(t stateSet) stateSet {
	return newStateSet(append(append([]int(nil), s...), t...)...)
}

func (s stateSet) key() string {
	parts := make([]string, len(s))
	for i, q := range s {
		parts[i] = strconv.Itoa(q)
	}
	return strings.Join(parts, ",")
}

type summary struct {
	from int
	set  stateSet
}

func (s summary) key() string { return strconv.Itoa(s.from) + "|" + s.set.key() }

// saturate computes the relation R(q, U) of Section 4.4: some tree has a run
// from (q, ε) whose leaf configurations are (u, ε) with u ∈ U.
func (p *PTA) saturate() map[string]summary {
	r := make(map[string]summary)
	var worklist []summary
	add := func(s summary) {
		k := s.key()
		if _, ok := r[k]; ok {
			return
		}
		r[k] = s
		worklist = append(worklist, s)
	}
	for k, tos := range p.leaf {
		for _, to := range tos {
			add(summary{from: k[0], set: newStateSet(to)})
		}
	}
	for len(worklist) > 0 {
		s := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		// Unary rule.
		for k, children := range p.unary {
			for _, child := range children {
				if child == s.from {
					add(summary{from: k[0], set: s.set})
				}
			}
		}
		// Binary rule: combine with every known summary for the sibling.
		for k, pairs := range p.binary {
			for _, lr := range pairs {
				for _, other := range snapshot(r) {
					if lr[0] == s.from && lr[1] == other.from {
						add(summary{from: k[0], set: s.set.union(other.set)})
					}
					if lr[0] == other.from && lr[1] == s.from {
						add(summary{from: k[0], set: other.set.union(s.set)})
					}
				}
			}
		}
		// Push-pop rule.
		for q1 := 0; q1 < p.num; q1++ {
			for _, pg := range p.push[q1] {
				if pg.state != s.from {
					continue
				}
				for _, img := range p.leafPopImages(s.set, pg.gamma) {
					add(summary{from: q1, set: img})
				}
			}
		}
	}
	return r
}

func (p *PTA) leafPopImages(set stateSet, gamma string) []stateSet {
	images := []stateSet{nil}
	for _, u := range set {
		succ := p.pop[popKey{u, gamma}]
		if len(succ) == 0 {
			return nil
		}
		var next []stateSet
		for _, img := range images {
			for _, u2 := range succ {
				next = append(next, img.union(newStateSet(u2)))
			}
		}
		images = next
	}
	return images
}

func snapshot(r map[string]summary) []summary {
	out := make([]summary, 0, len(r))
	for _, s := range r {
		out = append(out, s)
	}
	return out
}

// isEmpty reports whether the automaton accepts no tree: the language is
// non-empty iff R(q0, U) holds for an initial q0 and a set U of states from
// which ⊥ can be popped.
func (p *PTA) isEmpty() bool {
	popBottom := make(map[int]bool)
	for q := 0; q < p.num; q++ {
		if len(p.pop[popKey{q, bottom}]) > 0 {
			popBottom[q] = true
		}
	}
	for _, s := range p.saturate() {
		if !p.starts[s.from] {
			continue
		}
		ok := true
		for _, u := range s.set {
			if !popBottom[u] {
				ok = false
				break
			}
		}
		if ok {
			return false
		}
	}
	return true
}

// summaryCount returns the number of summaries computed by the emptiness
// saturation.
func (p *PTA) summaryCount() int { return len(p.saturate()) }
