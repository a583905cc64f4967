package main

import "example.com/m/internal/lib"

func main() {
	lib.Used()
	lib.UsedSeam()
	var s lib.Shape = lib.Square{Side: 2}
	println(s.Area(), lib.Kind(1))
	platform()
}
