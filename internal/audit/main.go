// Command audit checks that the module's non-main packages under internal/
// export and ship only what the rest of the module uses. Run it from the
// module root; it takes no flags:
//
//	go run ./internal/audit
//
// It type-checks every package once, tests included, and runs four checks:
//
//   - export: an exported top-level func, type, const or var that no other
//     package names. bench/, cmd/, examples/, other internal packages and
//     every external _test package count as other packages; identifiers are
//     matched by the declaration they resolve to, not by spelling. Methods
//     and struct fields are counted but not checked.
//   - reach: a function or method that none of the module's binaries (every
//     main package outside internal/) links. The binaries are built with the
//     module's packages compiled without inlining and read with `go tool nm`.
//   - knob: a field of a *Config or *Options struct whose only non-test
//     set-sites are in its own package's withDefaults or Default* function,
//     so it has one value in use.
//   - deprecated: a name declared in a non-test file whose doc comment says
//     "Deprecated:". Its keep line must give the roadmap reason, naming the
//     open ROADMAP.md item that deletes it, so no deprecation outlives its
//     plan.
//
// Every finding needs a line in internal/audit/keep.txt, and every line
// there must still be a finding; otherwise the command lists the difference
// and exits 1. Its first line prints the counts CHANGES.md entries quote:
// the exported names in internal/ by kind, the fields of core.Config, the
// Go-only fields and JSON keys of scenario.Spec, and the non-test Go lines
// in internal/ (audit excluded), cmd/ and examples/.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	problems, err := audit(".", "internal/audit/keep.txt", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// reasons are the categories a keep line may give, each with whether it
// needs a detail after a colon.
var reasons = map[string]bool{
	"test-oracle": false, // the reference side of a differential test
	"fuzz-driver": false, // a knob or read only a fuzzer drives
	"fixture":     false, // builds test inputs for other packages' tests
	"observer":    false, // a read that tests of surviving behaviour assert on
	"signature":   true,  // named only through the API of another exported name
	"roadmap":     true,  // the open ROADMAP.md item that will use it
}

var checks = []string{"export", "reach", "knob", "deprecated"}

// A problem is a finding with no keep line, or a keep line with no finding.
type problem struct {
	check, name string
	stale       bool // a keep line that is no longer a finding
}

func (p problem) String() string {
	if p.stale {
		return fmt.Sprintf("%s %s: kept but no longer a finding; remove its keep line", p.check, p.name)
	}
	return fmt.Sprintf("%s %s: not kept; remove or unexport it, or add a keep line", p.check, p.name)
}

// audit runs the four checks on the module at root against the keep list
// at keepPath (relative to root), reports to w and returns the problems.
func audit(root, keepPath string, w io.Writer) ([]problem, error) {
	keep, err := readKeep(filepath.Join(root, keepPath), filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		return nil, err
	}
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	reach, bins, err := reachability(m)
	if err != nil {
		return nil, err
	}
	found := map[string][]string{"export": exportScope(m), "reach": reach, "knob": knobs(m),
		"deprecated": deprecatedNames(m)}
	fmt.Fprintf(w, "exported names in internal/: %v; %v\n", countExported(m), measureSize(m))
	var problems []problem
	for _, c := range checks {
		kept := 0
		for _, name := range found[c] {
			if keep[c][name] {
				kept++
				delete(keep[c], name)
			} else {
				problems = append(problems, problem{check: c, name: name})
			}
		}
		for name := range keep[c] {
			problems = append(problems, problem{check: c, name: name, stale: true})
		}
		fmt.Fprintf(w, "%s: %d findings, %d kept", c, len(found[c]), kept)
		if c == "reach" {
			fmt.Fprintf(w, " (%d binaries)", bins)
		}
		fmt.Fprintln(w)
	}
	sort.Slice(problems, func(i, j int) bool {
		a, b := problems[i], problems[j]
		if a.check != b.check {
			return a.check < b.check
		}
		return a.name < b.name
	})
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if len(problems) == 0 {
		fmt.Fprintln(w, "ok")
	}
	return problems, nil
}

// readKeep parses the keep list: one "check name reason[: detail]" line per
// allowed finding; blank lines and lines starting with # are skipped.
func readKeep(keepPath, roadmapPath string) (map[string]map[string]bool, error) {
	data, err := os.ReadFile(keepPath)
	if err != nil {
		return nil, err
	}
	roadmap, _ := os.ReadFile(roadmapPath)
	keep := map[string]map[string]bool{}
	for _, c := range checks {
		keep[c] = map[string]bool{}
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bad := func(why string) error { return fmt.Errorf("%s:%d: %s: %q", keepPath, n, why, line) }
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, bad("want \"check name reason\"")
		}
		set, ok := keep[f[0]]
		if !ok {
			return nil, bad("unknown check")
		}
		reason, detail, _ := strings.Cut(strings.Join(f[2:], " "), ":")
		detail = strings.TrimSpace(detail)
		needsDetail, ok := reasons[reason]
		switch {
		case !ok:
			return nil, bad("unknown reason")
		case needsDetail && detail == "":
			return nil, bad(reason + " needs a detail after a colon")
		case reason == "roadmap" && !bytes.Contains(roadmap, []byte(detail)):
			return nil, bad("no such item in ROADMAP.md")
		case f[0] == "deprecated" && reason != "roadmap":
			return nil, bad("a deprecated name is kept only for the roadmap item that deletes it")
		case set[f[1]]:
			return nil, bad("duplicate line")
		}
		set[f[1]] = true
	}
	return keep, sc.Err()
}
