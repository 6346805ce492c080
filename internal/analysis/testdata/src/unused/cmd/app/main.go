package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), s.Area())
}
