// Command app is the fixture module's one binary.
package main

import (
	"fmt"

	"example.com/mod/internal/lib"
)

func main() {
	fmt.Println(lib.Greet(lib.Config{Name: "app"}))
}
