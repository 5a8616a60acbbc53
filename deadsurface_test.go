package psrahgadmm

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadSurfaceAllowlist names the exported internal identifiers that no
// non-test code uses on purpose, one per line with the reason.
const deadSurfaceAllowlist = "testdata/deadsurface.txt"

// TestNoDeadSurface keeps exported surface that the product does not run
// out of internal/. It type-checks every non-test file of the module and
// lists each exported top-level func, type, var or const, and each exported
// method, declared in a package under internal/ that no non-test file
// references outside its own declaration (a type's declaration includes its
// methods). cmd/, benchmark/ and the root package count as callers, as
// does every package under internal/. A method that belongs to an
// interface's method set which its type implements counts as used. Only
// the standard library's go/* packages are needed; the standard library
// itself is type-checked from source.
//
// The flagged set must equal the allowlist exactly: a new caller-less
// identifier fails the test, and so does an allowlist entry that is no
// longer flagged. Delete the identifier, give it a caller, or add it to the
// allowlist with a one-line reason (a test oracle or fake kept on purpose,
// or a name the benchmark's documentation uses).
func TestNoDeadSurface(t *testing.T) {
	flagged, err := deadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(deadSurfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range flagged {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: exported, but no non-test code uses it; delete it, or list it in %s with the reason it stays", name, deadSurfaceAllowlist)
		}
	}
	for name := range allowed {
		if !slices.Contains(flagged, name) {
			t.Errorf("%s: listed in %s, but non-test code uses it or it is gone; drop the entry", name, deadSurfaceAllowlist)
		}
	}
}

// readAllowlist parses lines of "name  reason"; blank lines and lines
// starting with # are skipped, and every entry needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

// srcPackage is one directory's non-test files, as the build selects them.
type srcPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// surfaceDecl is one exported identifier of an internal package and the
// source ranges that make up its declaration.
type surfaceDecl struct {
	name   string // path below internal/, then Name or Type.Method
	spans  [][2]token.Pos
	used   bool
	method *types.Func // nil unless a method
}

func (d *surfaceDecl) inside(p token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

// deadSurface returns, sorted, the names of the exported identifiers under
// root/internal that no non-test file of the module uses.
func deadSurface(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// File selection and the source importer read build.Default. Types need
	// no C toolchain, so every package is checked from its pure-Go files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	if err := typeCheck(fset, pkgs); err != nil {
		return nil, err
	}

	internal := modPath + "/internal/"
	decls := make(map[types.Object]*surfaceDecl)
	var all []*surfaceDecl
	add := func(obj types.Object, name string, spans ...[2]token.Pos) *surfaceDecl {
		d := &surfaceDecl{name: name, spans: spans}
		decls[obj] = d
		all = append(all, d)
		return d
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		short := strings.TrimPrefix(p.path, internal)
		typeSpans := make(map[string]*surfaceDecl)
		var methods []*ast.FuncDecl
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						methods = append(methods, decl)
					} else if decl.Name.IsExported() {
						add(p.info.Defs[decl.Name], short+"."+decl.Name.Name, span(decl))
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							// Every type is tracked, exported or not, so its
							// methods can count as part of its declaration.
							d := &surfaceDecl{spans: [][2]token.Pos{span(spec)}}
							if spec.Name.IsExported() {
								d = add(p.info.Defs[spec.Name], short+"."+spec.Name.Name, span(spec))
							}
							typeSpans[spec.Name.Name] = d
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									add(p.info.Defs[id], short+"."+id.Name, span(spec))
								}
							}
						}
					}
				}
			}
		}
		for _, m := range methods {
			recv := receiverName(m.Recv.List[0].Type)
			if td := typeSpans[recv]; td != nil {
				td.spans = append(td.spans, span(m))
			}
			if m.Name.IsExported() {
				fn, _ := p.info.Defs[m.Name].(*types.Func)
				add(fn, short+"."+recv+"."+m.Name.Name, span(m)).method = fn
			}
		}
	}

	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := decls[obj]; d != nil && !d.inside(id.Pos()) {
				d.used = true
			}
		}
	}

	ifaces, err := interfaces(fset, pkgs)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range all {
		if !d.used && (d.method == nil || !satisfiesInterface(d.method, ifaces)) {
			out = append(out, d.name)
		}
	}
	slices.Sort(out)
	return out, nil
}

func span(n ast.Node) [2]token.Pos { return [2]token.Pos{n.Pos(), n.End()} }

// receiverName returns the type name of a method receiver: T, *T, T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// dynamicInterfaces are the interfaces the standard library asserts on
// inside function bodies, where no package scope declares them: errors.Is,
// errors.As and errors.Unwrap call these methods.
const dynamicInterfaces = `package dynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// interfaces returns every interface with methods that the module's
// packages or the packages they import declare, name, or write as a
// literal, plus error and dynamicInterfaces.
func interfaces(fset *token.FileSet, pkgs map[string]*srcPackage) ([]*types.Interface, error) {
	seen := make(map[*types.Interface]bool)
	var out []*types.Interface
	note := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	note(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					note(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				note(tv.Type)
			}
		}
	}
	f, err := parser.ParseFile(fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		return nil, err
	}
	dyn, err := (&types.Config{}).Check("dynamic", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	walk(dyn)
	return out, nil
}

// satisfiesInterface reports whether m's receiver type, or a pointer to
// it, implements an interface whose method set includes m's name.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parseModule parses every package directory below root, skipping testdata
// and directories whose name starts with "." or "_", as the go command does.
func parseModule(fset *token.FileSet, root, modPath string) (map[string]*srcPackage, error) {
	pkgs := make(map[string]*srcPackage)
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &srcPackage{path: filepath.ToSlash(filepath.Join(modPath, rel))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		pkgs[p.path] = p
		return nil
	})
	return pkgs, err
}

// moduleImporter type-checks the module's packages from source on demand
// and leaves the standard library to the source importer.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.pkg = pkg
	return pkg, nil
}

func typeCheck(fset *token.FileSet, pkgs map[string]*srcPackage) error {
	imp := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil)}
	for path := range pkgs {
		if _, err := imp.Import(path); err != nil {
			return err
		}
	}
	return nil
}
