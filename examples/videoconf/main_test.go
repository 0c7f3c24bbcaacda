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
	const want = "89eaaca7818e2cdcb3f164235757ca8bc677ec7472683e5c1581cff9d2744dc3"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("stdout digest %s, want golden %s\n%s", got, want, out.String())
	}
}
