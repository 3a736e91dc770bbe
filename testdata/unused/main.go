// Command fixture is the caller side of the dead-code gate's fixture.
package main

import "fixture/internal/lib"

func main() {
	println(lib.Used(), lib.Get[int](lib.Box{N: 1}))
}
