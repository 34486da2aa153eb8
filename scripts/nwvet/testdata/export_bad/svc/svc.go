// Package svc seeds export-discipline violations in a scoped serving
// package.
package svc

// Used has a caller in app, so it passes, and so does Result, which its
// signature names.
func Used() Result { return Result{} }

// Result is what Used returns.
type Result struct{ N int }

// Size shares its name with app's box.Size, which is all app calls: a
// method is matched by its receiver's type, not by its name.
func (r Result) Size() int { return r.N }

// OnlyTested is called by svc_test.go alone: a test is not a caller.
func OnlyTested() {}

// Hidden is named only by an unexported function's signature.
type Hidden struct{}

func helper(Hidden) {}

// Bare is marked as a test oracle without saying which test uses it.
//
//nwvet:oracle
func Bare() {}
