package pnwa

import (
	"repro/internal/nestedword"
)

// Membership for pushdown nested word automata (Section 4.3, Theorem 10).
// The problem is NP-complete; this implementation performs a memoized search
// over the nested structure of the input word, with a configurable bound on
// the stack height explored (the NP upper-bound argument shows polynomially
// long ε-sequences suffice; the default bound is generous for every
// automaton constructed in this repository, whose pushes are driven by the
// input).

// config is a state together with a stack, the top being the last
// '\x00'-terminated chunk of the string.
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

// Accepts reports whether the automaton accepts the nested word, using a
// stack-height bound of len(word) + number of stack symbols + 4.
func (p *PNWA) Accepts(n *nestedword.NestedWord) bool {
	return p.acceptsWithin(n, n.Len()+len(p.gamma)+4)
}

// acceptsWithin is Accepts with an explicit bound on the stack height
// explored during the search.
func (p *PNWA) acceptsWithin(n *nestedword.NestedWord, maxStack int) bool {
	m := &matcher{p: p, n: n, maxStack: maxStack, memo: make(map[segKey]map[config]bool)}
	for _, q0 := range p.startStates() {
		start := config{state: q0, stack: pushStack("", bottom)}
		for end := range m.segment(0, n.Len(), start) {
			for final := range m.epsClosure(end) {
				if final.stack == "" {
					return true
				}
			}
		}
	}
	return false
}

type segKey struct {
	lo, hi int
	cfg    config
}

type matcher struct {
	p        *PNWA
	n        *nestedword.NestedWord
	maxStack int
	memo     map[segKey]map[config]bool
}

// epsClosure returns all configurations reachable from c by push/pop
// ε-moves, including c itself.
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

// segment returns the set of configurations reachable immediately after
// processing positions lo..hi-1, starting from cfg (the configuration
// reached immediately after position lo-1, before any ε-moves of position
// lo).  Matched call/return pairs are processed as units so that the
// configuration copied onto the hierarchical edge is available at the
// matching return; the requirement that leaf configurations have empty
// stacks is enforced during the recursion, so the returned configurations
// all belong to potentially accepting runs.
func (m *matcher) segment(lo, hi int, cfg config) map[config]bool {
	key := segKey{lo, hi, cfg}
	if cached, ok := m.memo[key]; ok {
		return cached
	}
	// Mark as in progress with an empty result to cut (impossible) cycles.
	result := make(map[config]bool)
	m.memo[key] = result

	current := map[config]bool{cfg: true}
	pos := lo
	for pos < hi {
		pposKind := m.n.KindAt(pos)
		next := make(map[config]bool)
		switch pposKind {
		case nestedword.Internal:
			sym := m.n.SymbolAt(pos)
			for c := range current {
				for cc := range m.epsClosure(c) {
					for _, to := range m.p.internR[callKey{cc.state, m.symIdx(sym)}] {
						next[config{state: to, stack: cc.stack}] = true
					}
				}
			}
			pos++
		case nestedword.Call:
			retPos, _ := m.n.ReturnSuccessor(pos)
			if retPos == nestedword.Pending || retPos >= hi {
				// Pending call (within this segment): only the linear branch
				// continues; the hierarchical edge dangles without
				// constraints.
				sym := m.n.SymbolAt(pos)
				for c := range current {
					for cc := range m.epsClosure(c) {
						for _, t := range m.p.callR[callKey{cc.state, m.symIdx(sym)}] {
							next[config{state: t.Linear, stack: cc.stack}] = true
						}
					}
				}
				pos++
			} else {
				// Matched pair: process the inside recursively, then the
				// return using the configuration on the hierarchical edge.
				callSym := m.n.SymbolAt(pos)
				retSym := m.n.SymbolAt(retPos)
				for c := range current {
					for cc := range m.epsClosure(c) {
						for _, t := range m.p.callR[callKey{cc.state, m.symIdx(callSym)}] {
							linCfg := config{state: t.Linear, stack: cc.stack}
							edgeCfg := config{state: t.Hier, stack: cc.stack}
							for innerEnd := range m.segment(pos+1, retPos, linCfg) {
								for pre := range m.epsClosure(innerEnd) {
									m.applyReturn(pre, edgeCfg, retSym, next)
								}
							}
						}
					}
				}
				pos = retPos + 1
			}
		case nestedword.Return:
			// Pending return: the hierarchical edge carries the default
			// configuration (q0, ⊥).
			sym := m.n.SymbolAt(pos)
			for c := range current {
				for cc := range m.epsClosure(c) {
					for _, q0 := range m.p.startStates() {
						def := config{state: q0, stack: pushStack("", bottom)}
						m.applyReturn(cc, def, sym, next)
					}
				}
			}
			pos++
		}
		current = next
		if len(current) == 0 {
			break
		}
	}
	for c := range current {
		result[c] = true
	}
	m.memo[key] = result
	return result
}

// applyReturn adds to out the configurations produced by reading a return
// labelled sym when the configuration just before the return is pre and the
// configuration on the hierarchical edge is edge.
func (m *matcher) applyReturn(pre, edge config, sym string, out map[config]bool) {
	si := m.symIdx(sym)
	if si < 0 {
		return
	}
	if !m.p.hier[pre.state] {
		// Linear mode: the hierarchical edge must carry an initial state and
		// the return transition applies to the current configuration.
		if m.p.starts[edge.state] {
			for _, to := range m.p.returnR[callKey{pre.state, si}] {
				out[config{state: to, stack: pre.stack}] = true
			}
		}
		return
	}
	// Hierarchical mode: pre is a leaf configuration; accepting runs require
	// its stack to be empty, and the continuation applies a return
	// transition to the configuration on the hierarchical edge.
	if pre.stack != "" {
		return
	}
	for _, to := range m.p.returnR[callKey{edge.state, si}] {
		out[config{state: to, stack: edge.stack}] = true
	}
}

func (m *matcher) symIdx(sym string) int {
	i, ok := m.p.alpha.Index(sym)
	if !ok {
		return -1
	}
	return i
}
