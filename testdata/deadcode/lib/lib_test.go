package lib

import "testing"

func TestOnlyTestCalls(t *testing.T) {
	if OnlyTestCalls() != 2 {
		t.Fatal("OnlyTestCalls")
	}
}
