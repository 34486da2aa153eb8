// Package fixture seeds plan-confinement violations: a serving-stack
// package importing the query planner and building a product automaton
// itself.
package fixture

import (
	"repro/internal/query"
	"repro/internal/query/plan"
)

// Register pretends to plan a bundle inside the serving stack.
func Register(b *query.Bundle) (*query.Bundle, error) {
	planned, _, err := plan.Bundle(b, plan.Options{})
	if err != nil {
		return nil, err
	}
	members := []*query.Compiled{planned.Compiled(0), planned.Compiled(1)}
	if _, err := query.CompileProduct(members, 0); err != nil {
		return nil, err
	}
	return planned, nil
}
