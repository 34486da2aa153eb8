// Package fixture seeds a dsl-confinement violation: a serving hot-path
// package importing the query DSL compiler.
package fixture

import (
	"repro/internal/query/dsl"
)

// Serve pretends to interpret query text per document.
func Serve(text string) error {
	_, err := dsl.ParseList(text)
	return err
}
