package core

import "testing"

type one struct{}

func (one) Run(e *Env) int { return e.Scale }

// An in-package test file: the external test is type-checked against the
// package with this file added, so plugin must be too.
func TestDrive(t *testing.T) {
	if Drive(one{}) != 1 {
		t.Fatal("Drive(one{}) != 1")
	}
}
