// Package plugin implements core.Workload.
package plugin

import "example.com/mod/internal/core"

type job struct{}

func (job) Run(e *core.Env) int { return 2 * e.Scale }

// New returns the plugin's workload.
func New() core.Workload { return job{} }
