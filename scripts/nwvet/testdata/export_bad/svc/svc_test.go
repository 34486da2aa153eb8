package svc

import "testing"

func TestOnlyTested(t *testing.T) {
	OnlyTested()
	helper(Hidden{})
	_ = Result{}.twice()
}
