// Package lib holds one declaration of each kind the scanner must report.
package lib

// Counter is live: main declares one and calls its Add method.
type Counter struct{ n int }

// Add is live: main selects it on a Counter.
func (c *Counter) Add(k int) { c.n += k }

// Used is live: main calls it.
func Used() int { return base }

const base = 1

// Unused is dead: nothing calls it.
func Unused() int { return OnlyDeadCalls() }

// OnlyTestCalls is dead: only lib_test.go calls it.
func OnlyTestCalls() int { return 2 }

// OnlyDeadCalls is dead: only Unused, itself dead, calls it.
func OnlyDeadCalls() int { return 3 }
