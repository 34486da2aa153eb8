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

// helper is called by svc_test.go alone: a test is not live code.
func helper(Hidden) {}

// twice is a method svc_test.go alone calls.
func (r Result) twice() int { return 2 * r.N }

// dead names deadCallee, but from no live code: liveness spreads from the
// roots, so a reference from dead code keeps nothing alive.
func dead() { deadCallee() }

func deadCallee() {}

// Bare is marked as a test oracle without saying which test uses it.
//
//nwvet:oracle
func Bare() {}

// Stale cites a test that no test file declares.
//
//nwvet:oracle TestGone holds Used to it
func Stale() {}

// reference cites a test that no test file declares.
//
//nwvet:oracle TestGone holds Used to it
func reference() Result { return Result{} }
