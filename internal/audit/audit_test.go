package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAuditReportsEachKind runs the audit on testdata/mod, a module with one
// finding of each check and one stale keep line, and wants exactly those.
func TestAuditReportsEachKind(t *testing.T) {
	var out bytes.Buffer
	got, err := audit("testdata/mod", "keep.txt", &out)
	if err != nil {
		t.Fatal(err)
	}
	want := []problem{
		{check: "deprecated", name: "lib.Config.Width"},
		{check: "export", name: "lib.Label"},
		{check: "knob", name: "lib.Config.Size"},
		{check: "reach", name: "lib.Gone", stale: true},
		{check: "reach", name: "lib.Unlinked"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems = %v, want %v\noutput:\n%s", got, want, out.String())
	}
}

// TestReadKeepRejectsMalformedLines: a keep line must name a known check and
// reason, give the detail that reason needs, and appear once.
func TestReadKeepRejectsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	roadmap := filepath.Join(dir, "ROADMAP.md")
	if err := os.WriteFile(roadmap, []byte("- **Serial by construction.**\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"reach lib.F",
		"lint lib.F fixture",
		"reach lib.F because",
		"export lib.T signature",
		"reach lib.F roadmap: Parallel by construction",
		"deprecated lib.F fixture",
		"reach lib.F fixture\nreach lib.F observer",
	} {
		keep := filepath.Join(dir, "keep.txt")
		if err := os.WriteFile(keep, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readKeep(keep, roadmap); err == nil {
			t.Errorf("readKeep accepted %q", line)
		}
	}
	keep := filepath.Join(dir, "keep.txt")
	ok := "# comment\n\nreach lib.F roadmap: Serial by construction\nexport lib.T signature: lib.New\n" +
		"deprecated lib.Config.F roadmap: Serial by construction\n"
	if err := os.WriteFile(keep, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readKeep(keep, roadmap)
	if err != nil {
		t.Fatal(err)
	}
	if !got["reach"]["lib.F"] || !got["export"]["lib.T"] || !got["deprecated"]["lib.Config.F"] || len(got["knob"]) != 0 {
		t.Errorf("readKeep = %v", got)
	}
}
