package pnwa

import (
	"sort"
	"strconv"
	"strings"
)

// Emptiness for pushdown nested word automata (Section 4.4, Theorem 11).
//
// The algorithm saturates the summary relation R ⊆ Q × 2^Qh × Q:
// R(q, U, q') holds iff there is a nested word and a run over it whose start
// configuration is (q, ε), whose end configuration is (q', ε), and each of
// whose leaf configurations is (u, ε) for some u ∈ U.  The language is
// non-empty iff R(q0, U, qf) holds for an initial q0, a set U ⊆ F, and a
// state qf ∈ F, where F is the set of states from which ⊥ can be popped.
//
// The derivation rules implemented below are exactly the seven rules listed
// in the paper: internal transitions, linear calls, linear returns,
// hierarchical call-returns, push-pop, linear concatenation, and
// hierarchical concatenation.  The relation can be exponentially large in
// the number of hierarchical states — emptiness is Exptime-complete — so
// the saturation is a worklist algorithm over canonicalized (q, U, q')
// triples.

// stateSet is a canonical (sorted, deduplicated) set of hierarchical states.
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

func (s stateSet) remove(q int) stateSet {
	out := make(stateSet, 0, len(s))
	for _, v := range s {
		if v != q {
			out = append(out, v)
		}
	}
	return out
}

func (s stateSet) contains(q int) bool {
	for _, v := range s {
		if v == q {
			return true
		}
	}
	return false
}

func (s stateSet) key() string {
	parts := make([]string, len(s))
	for i, q := range s {
		parts[i] = strconv.Itoa(q)
	}
	return strings.Join(parts, ",")
}

// summary is a triple (q, U, q').
type summary struct {
	from int
	set  stateSet
	to   int
}

func (s summary) key() string {
	return strconv.Itoa(s.from) + "|" + s.set.key() + "|" + strconv.Itoa(s.to)
}

// saturate computes the summary relation R.
func (p *PNWA) saturate() map[string]summary {
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

	syms := p.alpha.Symbols()

	// Base rules: internal transitions, linear calls, linear returns,
	// hierarchical call-returns.
	for k, tos := range p.internR {
		_ = k
		for _, to := range tos {
			add(summary{from: k.state, set: nil, to: to})
		}
	}
	for k, targets := range p.callR {
		for _, t := range targets {
			// Hierarchical call-returns: whenever the linear target is
			// hierarchical, the pair ⟨a b⟩ with an empty inside is
			// summarized by combining with a return transition of the
			// hierarchical-edge target (the source state may be linear or
			// hierarchical).
			if p.hier[t.Linear] {
				for si := range syms {
					for _, to := range p.returnR[callKey{t.Hier, si}] {
						add(summary{from: k.state, set: newStateSet(t.Linear), to: to})
					}
				}
			}
			// Linear calls: as in the paper's rule, a call from a linear
			// state that propagates an initial state along the hierarchical
			// edge moves to the linear successor.  (The restriction to
			// initial hierarchical targets keeps the concatenation rules
			// sound when a pending call later gets matched by a pending
			// return of a concatenated summary.)
			if !p.hier[k.state] && p.starts[t.Hier] {
				add(summary{from: k.state, set: nil, to: t.Linear})
			}
		}
	}
	for k, tos := range p.returnR {
		if p.hier[k.state] {
			continue
		}
		for _, to := range tos {
			add(summary{from: k.state, set: nil, to: to})
		}
	}

	// Hierarchical states can also take call transitions whose matching
	// return closes around a *non-empty* inside; those summaries arise from
	// combining the base hierarchical call-return rule with hierarchical
	// concatenation, so no extra base rule is needed here.

	for len(worklist) > 0 {
		s := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]

		// Push-pop rule.
		for q1 := 0; q1 < p.num; q1++ {
			for _, pg := range p.push[q1] {
				if pg.state != s.from {
					continue
				}
				pops := p.pop[popKey{s.to, pg.gamma}]
				if len(pops) == 0 {
					continue
				}
				// Every leaf state must be able to pop γ; enumerate the
				// possible images.
				images := p.leafPopImages(s.set, pg.gamma)
				for _, q2 := range pops {
					for _, img := range images {
						add(summary{from: q1, set: img, to: q2})
					}
				}
			}
		}

		// Linear concatenation with every existing summary, on both sides.
		for _, other := range snapshot(r) {
			if other.from == s.to {
				add(summary{from: s.from, set: s.set.union(other.set), to: other.to})
			}
			if other.to == s.from {
				add(summary{from: other.from, set: other.set.union(s.set), to: s.to})
			}
			// Hierarchical concatenation: extend a leaf of `other` with `s`,
			// and a leaf of `s` with `other`.
			if other.set.contains(s.from) {
				add(summary{
					from: other.from,
					set:  other.set.remove(s.from).union(s.set).union(newStateSet(s.to)),
					to:   other.to,
				})
			}
			if s.set.contains(other.from) {
				add(summary{
					from: s.from,
					set:  s.set.remove(other.from).union(other.set).union(newStateSet(other.to)),
					to:   s.to,
				})
			}
		}
	}
	return r
}

// leafPopImages enumerates the possible leaf-state sets after every state in
// set pops gamma (one choice of pop successor per leaf state).  The empty
// set has exactly one image: the empty set.
func (p *PNWA) leafPopImages(set stateSet, gamma string) []stateSet {
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

// IsEmpty reports whether the automaton accepts no nested word.
func (p *PNWA) IsEmpty() bool {
	r := p.saturate()
	popBottom := make(map[int]bool)
	for _, q := range p.poppableBottom() {
		popBottom[q] = true
	}
	for _, s := range r {
		if !p.starts[s.from] || !popBottom[s.to] {
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

// SummaryCount returns the number of summaries computed by the emptiness
// saturation; it is reported by experiment E16 as a proxy for the cost of
// the Exptime procedure.
func (p *PNWA) SummaryCount() int { return len(p.saturate()) }
