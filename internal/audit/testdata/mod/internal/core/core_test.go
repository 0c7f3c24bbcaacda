package core_test

import (
	"testing"

	"example.com/mod/internal/core"
	"example.com/mod/internal/plugin"
)

// plugin imports core, so go test compiles it again against core's test
// build: its Job is a Workload of that build.
func TestDrivePlugin(t *testing.T) {
	if core.Drive(plugin.New()) != 2 {
		t.Fatal("Drive(plugin.New()) != 2")
	}
}
