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
	const want = "a7c04418760b4970878bdcb9dce40de944166cb6b9849a5ff1abf517d768b21b"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("stdout digest %s, want golden %s\n%s", got, want, out.String())
	}
}
