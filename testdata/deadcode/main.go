// Command fixture is the dead-code scanner's test input: main reaches
// everything in lib except the three declarations the test expects.
package main

import "fixture/lib"

func main() {
	var c lib.Counter
	c.Add(lib.Used())
}
