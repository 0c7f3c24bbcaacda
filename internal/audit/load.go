package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A unit is one type-checked compilation: a package's own files, the package
// with its in-package test files, or its external _test package.
type unit struct {
	path  string // import path; an external test package ends in "_test"
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// A pkgDir is one directory of the module with its parsed files split the
// way `go test` splits them.
type pkgDir struct {
	path                    string // import path
	rel                     string // slash path relative to the module root
	files, tests, xtests    []*ast.File
	imports                 []string // module packages the non-test files import
	plain, withTests, xtest *unit
	checking                bool // plain is being type-checked
}

// A module is every package of a Go module, parsed and type-checked once.
type module struct {
	root, path string
	fset       *token.FileSet
	dirs       []*pkgDir // sorted by import path
	byPath     map[string]*pkgDir
	std        types.Importer
}

// loadModule parses every package under root (skipping testdata, hidden
// directories and nested modules) and type-checks each one, its in-package
// tests and its external tests.
func loadModule(root string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, path: modPath, fset: token.NewFileSet(), byPath: map[string]*pkgDir{}}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p != root {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		return m.parseDir(p)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.dirs, func(i, j int) bool { return m.dirs[i].path < m.dirs[j].path })
	for _, d := range m.dirs {
		if len(d.files) > 0 {
			if _, err := m.plain(d.path); err != nil {
				return nil, err
			}
		}
		if len(d.tests) > 0 {
			d.withTests, err = m.check(d.path, append(append([]*ast.File{}, d.files...), d.tests...), nil, nil)
			if err != nil {
				return nil, err
			}
		}
		if len(d.xtests) > 0 {
			self := d.plain
			if d.withTests != nil {
				self = d.withTests
			}
			d.xtest, err = m.check(d.path+"_test", d.xtests, self, map[string]*types.Package{})
			if err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parseDir parses the Go files of one directory that the default build
// context selects, if there are any.
func (m *module) parseDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	d := &pkgDir{path: path.Join(m.path, rel), rel: rel}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.files = append(d.files, f)
			for _, spec := range f.Imports {
				if p := strings.Trim(spec.Path.Value, `"`); strings.HasPrefix(p, m.path+"/") && !slices.Contains(d.imports, p) {
					d.imports = append(d.imports, p)
				}
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.xtests = append(d.xtests, f)
		default:
			d.tests = append(d.tests, f)
		}
	}
	if len(d.files)+len(d.tests)+len(d.xtests) == 0 {
		return nil
	}
	m.dirs = append(m.dirs, d)
	m.byPath[d.path] = d
	return nil
}

// plain returns the type-checked package at path without its tests,
// checking it (and, first, what it imports) on first use.
func (m *module) plain(path string) (*types.Package, error) {
	d := m.byPath[path]
	switch {
	case d.plain != nil:
		return d.plain.pkg, nil
	case d.checking:
		return nil, fmt.Errorf("import cycle through %s", path)
	case len(d.files) == 0:
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	d.checking = true
	u, err := m.check(path, d.files, nil, nil)
	if err != nil {
		return nil, err
	}
	d.plain = u
	return u.pkg, nil
}

// check type-checks files as the package path. self, when set, is what an
// external test package imports for the package it tests, and every module
// package that imports that package, directly or through others, is checked
// again against it into variants, as go test recompiles them for the test
// binary: their types then agree with self's.
func (m *module) check(path string, files []*ast.File, self *unit, variants map[string]*types.Package) (*unit, error) {
	u := &unit{path: path, files: files, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if self != nil && p == self.path {
			return self.pkg, nil
		}
		if self != nil && m.dependsOn(p, self.path) {
			return m.variant(p, self, variants)
		}
		if _, ok := m.byPath[p]; ok {
			return m.plain(p)
		}
		return m.std.Import(p)
	})
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, m.fset, files, u.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	u.pkg = pkg
	return u, nil
}

// variant returns module package p checked against the test build self, as
// check describes.
func (m *module) variant(p string, self *unit, variants map[string]*types.Package) (*types.Package, error) {
	if pkg, ok := variants[p]; ok {
		return pkg, nil
	}
	u, err := m.check(p, m.byPath[p].files, self, variants)
	if err != nil {
		return nil, err
	}
	variants[p] = u.pkg
	return u.pkg, nil
}

// dependsOn reports whether module package p imports target, directly or
// through other module packages.
func (m *module) dependsOn(p, target string) bool {
	seen := map[string]bool{}
	var walk func(p string) bool
	walk = func(p string) bool {
		d := m.byPath[p]
		if d == nil || seen[p] {
			return false
		}
		seen[p] = true
		for _, q := range d.imports {
			if q == target || walk(q) {
				return true
			}
		}
		return false
	}
	return walk(p)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// units lists every type-checked unit of the module.
func (m *module) units() []*unit {
	var us []*unit
	for _, d := range m.dirs {
		for _, u := range []*unit{d.plain, d.withTests, d.xtest} {
			if u != nil {
				us = append(us, u)
			}
		}
	}
	return us
}

// audited reports whether d is one of the packages the checks cover: a
// non-main package under internal/.
func (d *pkgDir) audited() bool {
	return (d.rel == "internal" || strings.HasPrefix(d.rel, "internal/")) &&
		d.plain != nil && d.plain.pkg.Name() != "main"
}

// short names the package of obj by its path below internal/.
func (m *module) short(pkg *types.Package) string {
	return strings.TrimPrefix(pkg.Path(), m.path+"/internal/")
}

// key identifies a declaration across units: the position of its name.
func (m *module) key(obj types.Object) string {
	return m.fset.Position(obj.Pos()).String()
}
