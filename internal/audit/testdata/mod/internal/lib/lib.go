// Package lib holds one finding of each audit check.
package lib

import "fmt"

// Config is what the binary passes in.
type Config struct {
	Name string
	// Size is set only by withDefaults: a knob finding.
	Size int
	// Width is ignored.
	//
	// Deprecated: a deprecated finding.
	Width int
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 8
	}
	return c
}

// Greet is what the binary calls.
func Greet(c Config) string {
	c = c.withDefaults()
	return Label(c.Name, c.Size)
}

// Label is exported, but no other package names it: an export finding.
func Label(name string, size int) string {
	return fmt.Sprintf("%s/%d", name, size)
}

// Unlinked is named by the binary's test, but no binary calls it: a reach
// finding.
func Unlinked() int { return 1 }
