package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestOutputGolden pins the example's stdout by SHA-256: the run is seeded,
// so the same code prints the same bytes.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "828664f2f7e1cc3e7c4d6c7a2502d54f93cc5f0af8c781034e9d7c19880237d4"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("stdout digest %s, want golden %s\n%s", got, want, out.String())
	}
}
