package main

import (
	"testing"

	"example.com/mod/internal/lib"
)

func TestUnlinked(t *testing.T) {
	if lib.Unlinked() != 1 {
		t.Fatal("Unlinked() != 1")
	}
}
