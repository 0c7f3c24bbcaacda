package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// counts tallies the exported names declared in the non-test files of the
// audited packages, by kind.
type counts struct {
	funcs, types, values, methods, fields int
}

func (c counts) String() string {
	return fmt.Sprintf("%d top-level (func %d, type %d, const/var %d); method %d, field %d",
		c.funcs+c.types+c.values, c.funcs, c.types, c.values, c.methods, c.fields)
}

func countExported(m *module) counts {
	var c counts
	for _, d := range m.dirs {
		if !d.audited() {
			continue
		}
		scope := d.plain.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				c.funcs++
			case *types.TypeName:
				c.types++
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if named.Method(i).Exported() {
						c.methods++
					}
				}
				switch u := named.Underlying().(type) {
				case *types.Struct:
					for i := 0; i < u.NumFields(); i++ {
						if u.Field(i).Exported() {
							c.fields++
						}
					}
				case *types.Interface:
					for i := 0; i < u.NumExplicitMethods(); i++ {
						if u.ExplicitMethod(i).Exported() {
							c.methods++
						}
					}
				}
			default:
				c.values++
			}
		}
	}
	return c
}

// size is the surface and line counts the first output line reports.
type size struct {
	configFields, specGoOnly, specKeys, lines int
}

func (s size) String() string {
	return fmt.Sprintf("core.Config fields %d, scenario.Spec Go-only fields %d and JSON keys %d, non-test Go lines %d",
		s.configFields, s.specGoOnly, s.specKeys, s.lines)
}

// measureSize counts core.Config's fields, scenario.Spec's fields tagged
// json:"-" and its JSON keys, and the lines of the non-test files in
// internal/ (the audit itself excluded), cmd/ and examples/. A struct the
// module lacks counts 0.
func measureSize(m *module) size {
	var s size
	if st := m.structType("internal/core", "Config"); st != nil {
		s.configFields = st.NumFields()
	}
	if st := m.structType("internal/scenario", "Spec"); st != nil {
		for i := 0; i < st.NumFields(); i++ {
			if reflect.StructTag(st.Tag(i)).Get("json") == "-" {
				s.specGoOnly++
			} else {
				s.specKeys++
			}
		}
	}
	for _, d := range m.dirs {
		top, _, _ := strings.Cut(d.rel, "/")
		if top != "internal" && top != "cmd" && top != "examples" || d.rel == "internal/audit" {
			continue
		}
		for _, f := range d.files {
			s.lines += m.fset.File(f.Pos()).LineCount()
		}
	}
	return s
}

// structType is the struct type the package at rel (below the module root)
// declares as name, or nil.
func (m *module) structType(rel, name string) *types.Struct {
	d := m.byPath[m.path+"/"+rel]
	if d == nil || d.plain == nil {
		return nil
	}
	obj := d.plain.pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	st, _ := obj.Type().Underlying().(*types.Struct)
	return st
}

// exportScope lists the exported top-level names of the audited packages
// that no other package names: not another package's files, not an external
// test package, not bench/, cmd/ or examples/. Names are matched by the
// declaration each identifier resolves to, not by spelling.
func exportScope(m *module) []string {
	namedOutside := map[string]bool{}
	for _, u := range m.units() {
		for _, obj := range u.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != u.path && obj.Parent() == obj.Pkg().Scope() {
				namedOutside[m.key(obj)] = true
			}
		}
	}
	var out []string
	for _, d := range m.dirs {
		if !d.audited() {
			continue
		}
		scope := d.plain.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !namedOutside[m.key(obj)] {
				out = append(out, m.short(obj.Pkg())+"."+name)
			}
		}
	}
	return out
}

// reachability lists the functions and methods declared in the audited
// packages that none of the module's binaries links. Every main package
// outside internal/ is built with the module's own packages compiled
// without inlining, so a call that would have been inlined still leaves
// its callee's symbol, and the symbols are read with `go tool nm`.
func reachability(m *module) ([]string, int, error) {
	var mains []string
	for _, d := range m.dirs {
		if d.plain != nil && d.plain.pkg.Name() == "main" && !strings.HasPrefix(d.rel+"/", "internal/") {
			mains = append(mains, "./"+d.rel)
		}
	}
	if len(mains) == 0 {
		return nil, 0, fmt.Errorf("no main packages outside internal/")
	}
	bin, err := os.MkdirTemp("", "audit-bin")
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = os.RemoveAll(bin) }()
	args := append([]string{"build", "-gcflags=" + m.path + "/...=-l", "-o", bin + string(filepath.Separator)}, mains...)
	if err := goCmd(m.root, nil, args...); err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, p := range mains {
		var out bytes.Buffer
		if err := goCmd(m.root, &out, "tool", "nm", filepath.Join(bin, filepath.Base(p))); err != nil {
			return nil, 0, err
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolName(strings.Join(f[2:], " "))] = true
			}
		}
	}
	var out []string
	for _, d := range m.dirs {
		if !d.audited() {
			continue
		}
		for _, fn := range declaredFuncs(d.plain.pkg) {
			if !linked[funcSymbol(fn)] {
				out = append(out, strings.TrimPrefix(funcSymbol(fn), m.path+"/internal/"))
			}
		}
	}
	sort.Strings(out)
	return out, len(mains), nil
}

var (
	typeArgs   = regexp.MustCompile(`\[.*\]`)
	closureSfx = regexp.MustCompile(`\.(func|gowrap)[0-9.]+$`)
)

// symbolName maps a linker symbol to the function it belongs to: type
// arguments of a generic instantiation and the suffixes of closures and go
// statement wrappers are dropped.
func symbolName(sym string) string {
	return closureSfx.ReplaceAllString(typeArgs.ReplaceAllString(sym, ""), "")
}

// funcSymbol spells fn as the linker does once type arguments are dropped:
// path.F, path.T.M or path.(*T).M.
func funcSymbol(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t, ptr := sig.Recv().Type(), false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	recv := t.(*types.Named).Obj().Name()
	if ptr {
		recv = "(*" + recv + ")"
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

// declaredFuncs lists the package's functions and the methods of its named
// non-interface types.
func declaredFuncs(pkg *types.Package) []*types.Func {
	var fns []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if name != "init" && name != "_" {
				fns = append(fns, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fns = append(fns, named.Method(i))
			}
		}
	}
	return fns
}

func goCmd(dir string, stdout *bytes.Buffer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return nil
}

// knobs lists the fields of the audited packages' *Config and *Options
// structs whose every non-test set-site lies in the same package's
// withDefaults or Default* function: a field with one value in use, which
// should be a constant. A set-site is a keyed or positional composite
// literal entry, an assignment or increment, or taking the field's address.
func knobs(m *module) []string {
	fields := map[*types.Var]string{} // field -> pkg.Type.Field
	for _, d := range m.dirs {
		if !d.audited() {
			continue
		}
		scope := d.plain.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fields[st.Field(i)] = m.short(tn.Pkg()) + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}
	elsewhere := map[*types.Var]bool{} // set outside a defaults function
	defaults := map[*types.Var]bool{}  // set inside one
	for _, d := range m.dirs {
		if d.plain == nil {
			continue
		}
		info := d.plain.info
		for _, f := range d.plain.files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				inDefaults := fd != nil && (fd.Name.Name == "withDefaults" || strings.HasPrefix(fd.Name.Name, "Default"))
				set := func(obj types.Object) {
					v, ok := obj.(*types.Var)
					if !ok || fields[v] == "" {
						return
					}
					if inDefaults && v.Pkg() == d.plain.pkg {
						defaults[v] = true
					} else {
						elsewhere[v] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := x.Key.(*ast.Ident); ok {
							set(info.Uses[id])
						}
					case *ast.CompositeLit:
						t := info.Types[x].Type
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem() // an elided &T{...} in a []*T literal
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok || len(x.Elts) == 0 {
							break
						}
						if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := range x.Elts {
								set(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, l := range x.Lhs {
							setSelector(info, l, set)
						}
					case *ast.IncDecStmt:
						setSelector(info, x.X, set)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							setSelector(info, x.X, set)
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for v, name := range fields {
		if defaults[v] && !elsewhere[v] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func setSelector(info *types.Info, e ast.Expr, set func(types.Object)) {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && info.Selections[s] != nil {
		set(info.Selections[s].Obj())
	}
}

// deprecatedNames lists the names declared in the audited packages' non-test
// files whose doc comment has a line starting "Deprecated:": top-level
// funcs, types, consts and vars, methods, and the fields of top-level struct
// types. Methods are spelled as reach spells them, fields as knob does.
func deprecatedNames(m *module) []string {
	var out []string
	for _, d := range m.dirs {
		if !d.audited() {
			continue
		}
		pkg := m.short(d.plain.pkg)
		for _, f := range d.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := d.plain.info.Defs[decl.Name].(*types.Func); ok && saysDeprecated(decl.Doc) {
						out = append(out, strings.TrimPrefix(funcSymbol(fn), m.path+"/internal/"))
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						out = appendDeprecatedSpec(out, pkg, decl, spec)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// appendDeprecatedSpec appends the deprecated names one spec declares. A
// lone spec's doc comment may sit on its declaration instead.
func appendDeprecatedSpec(out []string, pkg string, decl *ast.GenDecl, spec ast.Spec) []string {
	doc := func(own *ast.CommentGroup) *ast.CommentGroup {
		if own == nil && len(decl.Specs) == 1 {
			return decl.Doc
		}
		return own
	}
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		if saysDeprecated(doc(spec.Doc)) {
			out = append(out, pkg+"."+spec.Name.Name)
		}
		if st, ok := spec.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				if !saysDeprecated(field.Doc) {
					continue
				}
				for _, name := range field.Names {
					out = append(out, pkg+"."+spec.Name.Name+"."+name.Name)
				}
			}
		}
	case *ast.ValueSpec:
		if saysDeprecated(doc(spec.Doc)) {
			for _, name := range spec.Names {
				out = append(out, pkg+"."+name.Name)
			}
		}
	}
	return out
}

// saysDeprecated reports whether a doc comment has a "Deprecated:" line, the
// form go doc and gopls recognise.
func saysDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Deprecated:") {
			return true
		}
	}
	return false
}
