package main

import "internal/callers"

func main() {
	var n callers.Namer = callers.Thing{}
	println(callers.Used(), (&callers.Box[int]{}).Get(), n.Name())
}
