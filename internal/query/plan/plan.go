// Package plan decides how a compiled query bundle is executed: which
// queries are product-compiled into one shared automaton and which stay
// fanned out to their own runners.
//
// Nested-word automata are closed under product with multiplicative state
// cost (the source paper's Section 3.2), so a cluster of structurally
// similar queries can be answered by a single automaton whose states carry a
// per-query accept bitmask — per-event cost then stops scaling with the
// cluster size.  The same multiplicative bound is the hazard: a bad cluster
// multiplies to an enormous state space.  The planner therefore works under
// a state budget.  Queries are chunked into clusters of at most
// ClusterSize in bundle order, and each cluster is product-compiled; a
// cluster whose product exceeds StateBudget falls back to per-query fan-out,
// verdicts unchanged (TestPlannerBudgetFallback pins this).
// Experiment E28 measures where the crossover sits; see docs/COMPILATION.md
// for the pipeline this package sits in the middle of.
package plan

import (
	"errors"
	"fmt"

	"repro/internal/query"
)

// DefaultStateBudget is the product state cap used when Options leaves
// StateBudget zero: small enough that a pathological cluster degrades to
// fan-out instead of a giant table, large enough for the clusters E28 shows
// winning.
//
//nwvet:oracle TestProductBytesPinned and TestPlannedShapePinned compile their pinned products at this budget
const DefaultStateBudget = 4096

// defaultClusterSize is the cluster width used when Options leaves
// ClusterSize zero — the "≥8 structurally similar queries" region where E28
// shows the product beating fan-out, without betting the whole bundle on
// one product.
const defaultClusterSize = 8

// Options tunes the planner.  The zero value means the defaults.
type Options struct {
	// StateBudget caps each product's state count; a cluster whose product
	// would exceed it is fanned out instead.  Zero means
	// DefaultStateBudget; negative means no product compilation at all
	// (plan everything as fan-out).
	StateBudget int
	// ClusterSize is the maximum number of queries per product cluster.
	// Zero means 8 (defaultClusterSize); values below 2 disable clustering,
	// since a one-query product answers nothing a plain runner doesn't.
	ClusterSize int
}

// Decision reports what the planner did: the clusters that were
// product-compiled (bundle indices, in mask-bit order), the indices left
// fanned out, and the total product state count.
type Decision struct {
	Groups [][]int // product-compiled clusters, one index list each
	Solo   []int   // indices answered by their own runner
	States int     // summed state count of all compiled products
}

// Bundle plans a compiled bundle: queries are chunked into clusters and
// product-compiled, over-budget clusters fall back to fan-out, and the
// result is a planned bundle with identical names, order, and verdicts.
// The input bundle is not modified and must itself be unplanned.
func Bundle(b *query.Bundle, opts Options) (*query.Bundle, Decision, error) {
	if len(b.Groups()) != 0 {
		return nil, Decision{}, fmt.Errorf("plan: bundle is already planned (%d groups)", len(b.Groups()))
	}
	if opts.StateBudget == 0 {
		opts.StateBudget = DefaultStateBudget
	}
	if opts.ClusterSize == 0 {
		opts.ClusterSize = defaultClusterSize
	}

	var dec Decision
	var clusters [][]int
	var products []*query.CompiledProduct
	solo := func(indices ...int) { dec.Solo = append(dec.Solo, indices...) }

	// Bundle order is kept so DSL-emitted runs of similar queries land in
	// the same cluster.
	rest := make([]int, b.Len())
	for i := range rest {
		rest[i] = i
	}

	if opts.ClusterSize < 2 || opts.StateBudget < 0 {
		// No clustering, or no product compilation: every query is solo.
		solo(rest...)
		rest = nil
	}
	for len(rest) > 0 {
		n := opts.ClusterSize
		if n > len(rest) {
			n = len(rest)
		}
		cluster := rest[:n]
		rest = rest[n:]
		if n < 2 {
			solo(cluster...)
			continue
		}
		members := make([]*query.Compiled, n)
		for j, idx := range cluster {
			members[j] = b.Compiled(idx)
		}
		p, err := query.CompileProduct(members, opts.StateBudget)
		switch {
		case errors.Is(err, query.ErrStateBudget):
			// The multiplicative blow-up case: this cluster is cheaper
			// fanned out than materialized.
			solo(cluster...)
		case err != nil:
			return nil, Decision{}, fmt.Errorf("plan: cluster %v: %w", cluster, err)
		default:
			clusters = append(clusters, cluster)
			products = append(products, p)
			dec.Groups = append(dec.Groups, cluster)
			dec.States += p.NumStates()
		}
	}

	planned, err := query.NewPlannedBundle(b, clusters, products)
	if err != nil {
		return nil, Decision{}, fmt.Errorf("plan: %w", err)
	}
	return planned, dec, nil
}
