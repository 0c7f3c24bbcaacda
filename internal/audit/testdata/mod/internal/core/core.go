// Package core is the package under test whose external test imports a
// package that imports it.
package core

// Env is what a workload runs in.
type Env struct{ Scale int }

// Workload is what plugin implements.
type Workload interface{ Run(*Env) int }

// Drive runs w: what the binary calls.
func Drive(w Workload) int { return w.Run(&Env{Scale: 1}) }
