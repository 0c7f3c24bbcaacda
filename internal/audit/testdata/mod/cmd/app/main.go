// Command app is the fixture module's one binary.
package main

import (
	"fmt"

	"example.com/mod/internal/core"
	"example.com/mod/internal/lib"
	"example.com/mod/internal/plugin"
)

func main() {
	fmt.Println(lib.Greet(lib.Config{Name: "app"}), core.Drive(plugin.New()))
}
