package svc

import "testing"

func TestReference(t *testing.T) {
	if Measure(Reference()) != reference() {
		t.Error("Measure disagrees with its reference")
	}
}
