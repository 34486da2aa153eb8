package query

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/nwa"
)

// This file is the automaton-level static analyzer behind `nwtool vet`: a
// compiled artifact is checked before anything maps it, against invariants in
// two rings.
//
//  1. Structural: decode is the structural gate.  VetBytes vets only what
//     decodes, and decoding already enforces every table shape, target
//     range, sparse-key range, mask width and demux rule; vet adds what the
//     decoder cannot see: the dead state must be a sink, and a product's
//     accept mask must agree with its automaton's accept table.
//  2. Semantic: reachability and coaccessibility over the compiled tables,
//     computed by the emptiness machinery of internal/nwa (Section 3.2), so
//     unreachable states, useless transitions, and empty-language queries
//     are reported with exact counts before a fleet boots the bundle.
//
// Structural violations are errors (the artifact is rejected); semantic
// findings are warnings (the artifact works, but carries dead weight).

// Vet issue levels.
const (
	// vetError marks a dead-sink or accept-mask violation; the artifact
	// must not be served.
	vetError = "error"
	// vetWarning marks a semantic finding — dead states or transitions; the
	// artifact is safe but bloated.
	vetWarning = "warning"
)

// vetCoaccessLimit caps the automaton size for the coaccessibility pass,
// whose projected-edge construction enumerates the quadratic return index.
// Larger automata skip the pass (noted in the stats) rather than stall the
// vet.
const vetCoaccessLimit = 256

// VetIssue is one finding of the artifact verifier.
type VetIssue struct {
	// Query is the display name of the query the issue is in ("" for
	// container-level issues).
	Query string
	// Level is "error" or "warning".
	Level string
	// Msg describes the violation.
	Msg string
}

// VetQueryStats summarizes the semantic analysis of one query.
type VetQueryStats struct {
	// Name is the query's display name in the bundle, or "group N" for
	// the automaton of the N-th product group.
	Name string
	// Form is "dnwa", or "product-dnwa" when the automaton is the shared
	// interior of a product-compiled cluster.
	Form string
	// States is the exact state count, dead sink included for DNWAs.
	States int
	// Reachable counts states some nested word reaches linearly.
	Reachable int
	// Unreachable lists the states that are neither linearly reachable nor
	// used as hierarchical targets of reachable calls, in ascending order.
	Unreachable []int
	// DeadTransitions counts defined transitions that can never fire
	// because their source (or return-edge hierarchical component) is
	// unreachable.
	DeadTransitions int
	// NonCoaccessible counts reachable states from which no accepting state
	// can be reached (designated dead sinks excluded); -1 when the
	// automaton exceeds vetCoaccessLimit and the pass was skipped.
	NonCoaccessible int
}

// VetContainer identifies the serialized bundle a report was vetted from.
type VetContainer struct {
	// ContentHash is the bundle's verified content hash, in hex.
	ContentHash string
}

// VetReport is the full result of vetting one artifact.
type VetReport struct {
	// Container describes the serialized artifact.
	Container VetContainer
	// Queries holds per-query statistics in bundle order.
	Queries []VetQueryStats
	// Issues holds every finding, container-level first.
	Issues []VetIssue
}

func (r *VetReport) add(query, level, msg string) {
	r.Issues = append(r.Issues, VetIssue{Query: query, Level: level, Msg: msg})
}

// Errors counts vetError issues.
func (r *VetReport) Errors() int { return r.count(vetError) }

// warnings counts vetWarning issues.
func (r *VetReport) warnings() int { return r.count(vetWarning) }

func (r *VetReport) count(level string) int {
	n := 0
	for _, i := range r.Issues {
		if i.Level == level {
			n++
		}
	}
	return n
}

// String renders the report in the line-per-finding format documented in
// docs/ANALYZERS.md: one stats line per query, one line per issue, and a
// closing tally.
func (r *VetReport) String() string {
	var b strings.Builder
	if r.Container.ContentHash != "" {
		fmt.Fprintf(&b, "container: content hash %s\n", r.Container.ContentHash)
	}
	for _, s := range r.Queries {
		fmt.Fprintf(&b, "query %q: %s, %d states, %d reachable, %d unreachable, %d dead transitions",
			s.Name, s.Form, s.States, s.Reachable, len(s.Unreachable), s.DeadTransitions)
		if s.NonCoaccessible < 0 {
			fmt.Fprintf(&b, ", coaccessibility skipped (>%d states)", vetCoaccessLimit)
		} else {
			fmt.Fprintf(&b, ", %d non-coaccessible", s.NonCoaccessible)
		}
		b.WriteByte('\n')
	}
	for _, i := range r.Issues {
		b.WriteString(i.Level)
		b.WriteString(": ")
		if i.Query != "" {
			fmt.Fprintf(&b, "query %q: ", i.Query)
		}
		b.WriteString(i.Msg)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "vet: %d errors, %d warnings\n", r.Errors(), r.warnings())
	return b.String()
}

// VetBytes verifies a serialized bundle.  Bytes that do not decode as a
// bundle are rejected with the decoder's error — a Version1 container with
// format.ErrUnhashed; a bundle that decodes is vetted and the findings
// returned in the report, never panicking on any input.
func VetBytes(data []byte) (*VetReport, error) {
	b, err := UnmarshalBundle(data)
	if err != nil {
		return nil, err
	}
	rep := vetBundle(b)
	rep.Container.ContentHash = hex.EncodeToString(b.hash[:])
	return rep, nil
}

// vetBundle verifies a decoded bundle: every product group and every solo
// query through the structural and semantic checks.
// The demux table and the shared alphabet need no re-check — decodeBundle
// refuses a bundle that covers a name twice or not at all, and every query
// it decodes reads the bundle's one alphabet.
func vetBundle(b *Bundle) *VetReport {
	rep := &VetReport{}
	if b.Len() == 0 {
		rep.add("", vetWarning, "bundle holds no queries")
	}
	for gi, g := range b.Groups() {
		vetProduct(rep, fmt.Sprintf("group %d", gi+1), g.Product)
	}
	for i, c := range b.queries {
		if c != nil {
			vetQuery(rep, b.Name(i), c)
		}
	}
	return rep
}

// vetProduct verifies a product-compiled cluster: the cross-representation
// agreement between the accept bitmask and the product automaton's accept
// table, then — through vetQuery — the automaton itself, reported under the
// "product-dnwa" form.  The mask's width and bit range are the decoder's.
func vetProduct(rep *VetReport, name string, p *CompiledProduct) {
	c := p.inner
	// The product automaton accepts exactly where some member does, i.e.
	// where the state's mask row is non-empty.
	for s := 0; s < c.num; s++ {
		var row uint64
		for _, w := range p.mask[s*p.maskW : (s+1)*p.maskW] {
			row |= w
		}
		if c.accept[s] != (row != 0) {
			rep.add(name, vetError, fmt.Sprintf("state %d acceptance disagrees with its accept-mask row", s))
			return
		}
	}
	before := len(rep.Queries)
	vetQuery(rep, name, c)
	for i := before; i < len(rep.Queries); i++ {
		rep.Queries[i].Form = "product-" + rep.Queries[i].Form
	}
}

// vetQuery runs one decoded automaton through the dead-sink check and the
// semantic analysis.
func vetQuery(rep *VetReport, name string, c *Compiled) {
	c.vetDeadSink(rep, name)
	vetSemantics(rep, name, c)
}

// --- dead-sink check -----------------------------------------------------

// vetDeadSink checks a structural property the decoder cannot see: the
// designated dead state must be a sink — every transition out of it
// lands in it — or the compiled automaton silently resurrects rejected
// runs.  Acceptance at the sink is legal: a complemented query (the DSL's
// "no x after y", or any "not") accepts exactly where the original
// automaton died, out-of-alphabet symbols included, which keeps the
// complement law not(Q) ≡ !Q exact.  It draws a warning, because on a
// never-negated query it usually means a corrupted accept mask.
func (c *Compiled) vetDeadSink(rep *VetReport, name string) {
	dead := int(c.dead)
	if c.accept[dead] {
		rep.add(name, vetWarning, fmt.Sprintf("dead state %d is accepting (complemented query, or a corrupted accept mask)", dead))
	}
	for sym := 0; sym < c.syms; sym++ {
		i := dead*c.syms + sym
		if c.callLin[i] != c.dead || c.internT[i] != c.dead {
			rep.add(name, vetError, fmt.Sprintf("dead state %d has an outgoing transition on symbol %d (not a sink)", dead, sym))
			break
		}
	}
	c.eachReturnEdge(func(lin, hier, sym, to int) {
		if lin == dead && to != dead {
			rep.add(name, vetError, fmt.Sprintf("dead state %d returns to live state %d (not a sink)", dead, to))
		}
	})
}

// eachReturnEdge enumerates the defined (non-dead-target) return
// transitions.
func (c *Compiled) eachReturnEdge(f func(lin, hier, sym, to int)) {
	for lin := 0; lin < c.num; lin++ {
		for hier := 0; hier < c.hiers; hier++ {
			for sym, to := range c.returnRow(int32(lin), int32(hier)) {
				if to != c.dead {
					f(lin, hier, sym, int(to))
				}
			}
		}
	}
}

// --- semantic analysis ---------------------------------------------------

// dnwaGraph exposes a Compiled's defined transitions (dead-sink targets
// excluded) as a StateGraph for the reachability analysis.
type dnwaGraph struct{ c *Compiled }

func (g dnwaGraph) NumStates() int         { return g.c.num }
func (g dnwaGraph) NumSymbols() int        { return g.c.syms }
func (g dnwaGraph) StartStates() []int     { return []int{int(g.c.start)} }
func (g dnwaGraph) IsAccepting(q int) bool { return g.c.accept[q] }

func (g dnwaGraph) EachCallEdge(q, sym int, f func(linear, hier int)) {
	i := q*g.c.syms + sym
	if lin := g.c.callLin[i]; lin != g.c.dead || g.c.callHier[i] != g.c.dead {
		f(int(lin), int(g.c.callHier[i]))
	}
}

func (g dnwaGraph) EachInternalEdge(q, sym int, f func(to int)) {
	if to := g.c.internT[q*g.c.syms+sym]; to != g.c.dead {
		f(int(to))
	}
}

// EachReturnEdge yields nothing for hier ≥ H: no run can pop such a state,
// and the return table has no column for it.
func (g dnwaGraph) EachReturnEdge(lin, hier, sym int, f func(to int)) {
	if hier >= g.c.hiers {
		return
	}
	if to := g.c.stepReturn(int32(lin), int32(hier), sym); to != g.c.dead {
		f(int(to))
	}
}

// liveSets runs the reachability analysis and derives the hierarchical
// usage and return-edge eligibility sets: hierOK[h] is true when a return
// edge with hierarchical component h can fire — h is the hierarchical
// target of a call from a reachable state, or an initial state (pending
// returns, Section 3.1).
func liveSets(g nwa.StateGraph) (reach, hier, hierOK []bool) {
	reach = nwa.ReachableStates(g)
	hier = nwa.HierarchicalTargets(g, reach)
	hierOK = make([]bool, len(hier))
	copy(hierOK, hier)
	for _, q := range g.StartStates() {
		if q >= 0 && q < len(hierOK) {
			hierOK[q] = true
		}
	}
	return reach, hier, hierOK
}

// vetSemantics runs the reachability/coaccessibility analysis of one query
// and appends its stats and warnings.  The designated dead sink is excluded
// from the dead-weight warnings.
func vetSemantics(rep *VetReport, name string, c *Compiled) {
	g := dnwaGraph{c}
	deadState := int(c.dead)
	reach, hier, hierOK := liveSets(g)
	stats := VetQueryStats{Name: name, Form: "dnwa", States: g.NumStates(), NonCoaccessible: -1}
	for q, r := range reach {
		if r {
			stats.Reachable++
		} else if !hier[q] && q != deadState {
			stats.Unreachable = append(stats.Unreachable, q)
		}
	}
	sort.Ints(stats.Unreachable)
	for _, q := range stats.Unreachable {
		rep.add(name, vetWarning, fmt.Sprintf("state %d is unreachable", q))
	}
	stats.DeadTransitions = c.countDeadTransitions(reach, hierOK)
	if stats.DeadTransitions > 0 {
		rep.add(name, vetWarning, fmt.Sprintf("%d dead transitions can never fire", stats.DeadTransitions))
	}
	if g.NumStates() <= vetCoaccessLimit {
		co := nwa.CoaccessibleStates(g, hierOK)
		stats.NonCoaccessible = 0
		empty := true
		for q, r := range reach {
			if !r || q == deadState {
				continue
			}
			if !co[q] {
				stats.NonCoaccessible++
				rep.add(name, vetWarning, fmt.Sprintf("state %d cannot reach an accepting state", q))
			} else {
				empty = false
			}
		}
		if empty {
			rep.add(name, vetWarning, "query accepts no document (no reachable state is coaccessible)")
		}
	}
	rep.Queries = append(rep.Queries, stats)
}

// countDeadTransitions counts the defined DNWA transitions that cannot fire:
// call and internal cells out of unreachable states, and return edges whose
// linear source is unreachable or whose hierarchical component no reachable
// call (and no pending return) supplies.
func (c *Compiled) countDeadTransitions(reach, hierOK []bool) int {
	dead := 0
	for q := 0; q < c.num; q++ {
		if reach[q] {
			continue
		}
		for sym := 0; sym < c.syms; sym++ {
			i := q*c.syms + sym
			if c.callLin[i] != c.dead || c.callHier[i] != c.dead {
				dead++
			}
			if c.internT[i] != c.dead {
				dead++
			}
		}
	}
	c.eachReturnEdge(func(lin, hier, sym, to int) {
		if !reach[lin] || !hierOK[hier] {
			dead++
		}
	})
	return dead
}
