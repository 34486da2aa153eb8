package query

// PairCounts is what the product fixpoint paired: the (LID, HID) pairs it
// visited, the class tuples it expanded, and how many distinct tuples of
// member lin-classes (LIDs) and hier-classes (HIDs) it numbered.
type PairCounts struct {
	Expanded, Visited int
	LinIDs, HierIDs   int
}

// ProductPairCounts runs the product fixpoint over a cluster of members and
// reports its PairCounts, with the fixpoint's error (nil or
// ErrStateBudget).  A budget ≤ 0 means the serialization limit, as in
// CompileProduct.
func ProductPairCounts(members []*Compiled, budget int) (PairCounts, error) {
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	b := newDetBuilder(members, budget)
	err := b.fixpoint()
	return PairCounts{b.expanded, b.visited, b.lids.len(), b.hids.len()}, err
}

// withLegacyReturn returns a copy of c whose Marshal writes the return table
// the way containers did before the factored layout: the dense num·H·syms
// table, or, when sparse is set, the sorted keys (lin·num+hier)·syms+sym of
// every transition whose target is not the dead state, with their targets.
func withLegacyReturn(c *Compiled, sparse bool) *Compiled {
	l := &legacyReturn{dense: !sparse}
	for lin := int32(0); int(lin) < c.num; lin++ {
		for hier := int32(0); int(hier) < c.hiers; hier++ {
			row := c.returnRow(lin, hier)
			if l.dense {
				l.returnT = append(l.returnT, row...)
				continue
			}
			for sym, to := range row {
				if to != c.dead {
					l.keys = append(l.keys, uint64((int(lin)*c.num+int(hier))*c.syms+sym))
					l.vals = append(l.vals, to)
				}
			}
		}
	}
	legacy := *c
	legacy.legacy = l
	return &legacy
}

// legacySparse reports whether the encoder before the factored layout
// stored c's return table sparse: past 2²² cells.
func legacySparse(c *Compiled) bool { return c.num*c.hiers*c.syms > 1<<22 }

// legacyProduct returns a copy of p whose Marshal writes its automaton in
// a legacy return layout (see withLegacyReturn).
func legacyProduct(p *CompiledProduct, sparse bool) *CompiledProduct {
	legacy := *p
	legacy.inner = withLegacyReturn(p.inner, sparse)
	return &legacy
}

// LegacyMarshal serializes a product as the encoder before the factored
// layout did: dense return table, or sparse past 2²² cells.
func LegacyMarshal(p *CompiledProduct) []byte {
	return legacyProduct(p, legacySparse(p.inner)).Marshal()
}
