package query

// ProductPairCounts runs the product fixpoint over a cluster of *Compiled
// members and reports how many (lin, hier) pairs of product tuples it
// expanded and how many it visited, with the fixpoint's error (nil or
// ErrStateBudget).  A budget ≤ 0 means the serialization limit, as in
// CompileProduct.
func ProductPairCounts(members []Query, budget int) (expanded, visited int, err error) {
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	ms := make([]*Compiled, len(members))
	for j, m := range members {
		ms[j] = m.(*Compiled)
	}
	b := newDetBuilder(ms, budget)
	err = b.fixpoint()
	return b.expanded, b.visited, err
}
