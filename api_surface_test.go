package dronedse

// The exported-surface guard: every exported function or method declared in
// a library package must be used by some non-test code in the repository —
// the cmd/ programs and the benchmark/ module included — or be listed,
// with a reason, in testdata/api_allowlist.txt. API that only tests
// call is deleted rather than kept "just in case"; the allowlist can only
// shrink, because an entry that is now used or no longer declared fails the
// guard too. The same holds for every other package-level func, type, var
// and const of non-test code, exported or not, main packages included (bar
// main, init and blank names). Methods are guarded only when exported and
// in a library package: unexported methods and struct fields are exempt,
// because interfaces and encoding/json reach them without naming them.
//
// The match is by type, not by name: the non-test packages are type-checked
// from source with go/types, and a declaration counts as used when its
// types.Object is referred to anywhere outside its own declaration; a type
// named only as the receiver of its own methods is unused. A
// method also counts as used when its receiver type implements an interface
// with a method of that name, declared in the repository or in a package it
// imports (sort.Interface, heap.Interface, fmt.Stringer, error, io.Writer,
// mission.Workload, ...): such methods are called through the interface,
// never by name. Build constraints are honoured, and the surface is the union
// of every build in surfaceBuilds.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const apiAllowlistPath = "testdata/api_allowlist.txt"

// surfaceBuilds are the build-tag sets the guard type-checks: the default
// build, and the chaos-injection build that compiles fleet's failpoint hooks.
var surfaceBuilds = [][]string{nil, {"failpoint"}}

// surfaceLoader type-checks packages from source under one build context. The
// packages of the module at root (and of any module nested under it, such as
// benchmark/, whose import paths extend the root's) are checked in full with
// use information; standard-library packages are checked without function
// bodies and may be shared between loaders through std. Every import goes
// through the loader, so each package is checked once per build and all its
// importers see the same objects: a use recorded in info refers to the very
// types.Func its declaration defines.
type surfaceLoader struct {
	ctx    build.Context
	fset   *token.FileSet
	root   string
	module string
	std    map[string]*types.Package // by directory
	pkgs   map[string]*types.Package // module packages, by import path
	info   *types.Info
	decls  map[types.Object]ast.Node // each guarded declaration, with its span
	recvs  map[*ast.Ident]bool       // the type names in method receivers
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *surfaceLoader) ImportFrom(importPath, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := strings.CutPrefix(importPath, l.module); ok && (rel == "" || rel[0] == '/') {
		return l.loadModulePkg(importPath, filepath.Join(l.root, filepath.FromSlash(rel)))
	}
	bp, err := l.ctx.Import(importPath, srcDir, 0)
	if err != nil {
		return nil, err
	}
	if pkg := l.std[bp.Dir]; pkg != nil {
		return pkg, nil
	}
	files, err := l.parse(bp)
	if err != nil {
		return nil, err
	}
	var hardErr error
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		Sizes:            types.SizesFor("gc", l.ctx.GOARCH),
		Error: func(err error) {
			if te, ok := err.(types.Error); hardErr == nil && (!ok || !te.Soft) {
				hardErr = err
			}
		},
	}
	pkg, _ := conf.Check(bp.ImportPath, l.fset, files, nil)
	if hardErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", bp.ImportPath, hardErr)
	}
	l.std[bp.Dir] = pkg
	return pkg, nil
}

// loadModulePkg type-checks the module package in dir, recording its uses
// in l.info and its guarded declarations in l.decls.
func (l *surfaceLoader) loadModulePkg(importPath, dir string) (*types.Package, error) {
	if pkg := l.pkgs[importPath]; pkg != nil {
		return pkg, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(bp)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	pkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	main := pkg.Name() == "main"
	guard := func(id *ast.Ident, span ast.Node) {
		if id.Name != "_" && id.Name != "init" && !(main && id.Name == "main") {
			l.decls[l.info.Defs[id]] = span
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					guard(d.Name, d)
					break
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recvs[id] = true
					}
					return true
				})
				if !main && d.Name.IsExported() {
					l.decls[l.info.Defs[d.Name]] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						guard(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							guard(id, spec)
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

func (l *surfaceLoader) parse(bp *build.Package) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// interfaces returns the named interface types declared in the module's
// packages and in the packages they import, plus error.
func (l *surfaceLoader) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	add := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, pkg := range l.pkgs {
		add(pkg)
		for _, imp := range pkg.Imports() {
			add(imp)
		}
	}
	return ifaces
}

// scanAPI type-checks every non-test package under root (a directory holding
// a go.mod) once per build in builds. It returns the guarded declarations,
// keyed "dir.Name" or "dir.Type.Name" with dir relative to root, each with
// its position, and the set of those keys that are used.
func scanAPI(root string, builds [][]string) (decls map[string]string, used map[string]bool, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		return nil, nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	module := string(m[1])
	decls, used = map[string]string{}, map[string]bool{}
	fset := token.NewFileSet()
	std := map[string]*types.Package{}
	for _, tags := range builds {
		l := &surfaceLoader{
			ctx: build.Default, fset: fset, root: root, module: module, std: std,
			pkgs:  map[string]*types.Package{},
			info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
			decls: map[types.Object]ast.Node{},
			recvs: map[*ast.Ident]bool{},
		}
		// Without cgo the standard library type-checks from pure Go source.
		l.ctx.CgoEnabled = false
		l.ctx.BuildTags = tags
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, p)
			_, err = l.loadModulePkg(path.Join(module, filepath.ToSlash(rel)), p)
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		// Info.Uses holds every reference, selections (x.M) included.
		for id, obj := range l.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := l.decls[obj]; d != nil && !l.recvs[id] && (id.Pos() < d.Pos() || id.Pos() >= d.End()) {
				used[l.key(obj)] = true
			}
		}
		ifaces := l.interfaces()
		for obj, d := range l.decls {
			key := l.key(obj)
			if _, ok := decls[key]; !ok {
				decls[key] = fset.Position(d.Pos()).String()
			}
			if fn, ok := obj.(*types.Func); ok && !used[key] {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && implementsByName(recv.Type(), fn.Name(), ifaces) {
					used[key] = true
				}
			}
		}
	}
	return decls, used, nil
}

// key names obj as the allowlist does: its package's directory relative to
// root, its receiver's type name for a method, then its own name.
func (l *surfaceLoader) key(obj types.Object) string {
	dir := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), l.module), "/")
	if dir == "" {
		dir = "."
	}
	key := dir + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			key += t.(*types.Named).Obj().Name() + "."
		}
	}
	return key + obj.Name()
}

// implementsByName reports whether T or *T, for the receiver type recv,
// implements an interface in ifaces that has a method called name.
func implementsByName(recv types.Type, name string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// readAllowlist parses "key  reason" lines; blank lines and # comments are
// skipped.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, key)
		}
		if _, dup := allow[key]; dup {
			t.Errorf("%s:%d: %s listed twice", path, line, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// checkSurface returns the guard's complaints, sorted: exported API with no
// non-test use that the allowlist does not excuse, and allowlist entries
// that are stale.
func checkSurface(decls map[string]string, used map[string]bool, allow map[string]string) []string {
	var bad []string
	for key, pos := range decls {
		_, listed := allow[key]
		switch {
		case !used[key] && !listed:
			bad = append(bad, pos+": "+key+" has no non-test use; delete it or add it to "+apiAllowlistPath+" with a reason")
		case used[key] && listed:
			bad = append(bad, apiAllowlistPath+": "+key+" now has a non-test use; drop its entry")
		}
	}
	for key := range allow {
		if _, ok := decls[key]; !ok {
			bad = append(bad, apiAllowlistPath+": "+key+" is no longer declared; drop its entry")
		}
	}
	sort.Strings(bad)
	return bad
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	decls, used, err := scanAPI(".", surfaceBuilds)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("scan found no exported functions")
	}
	for _, msg := range checkSurface(decls, used, readAllowlist(t, apiAllowlistPath)) {
		t.Error(msg)
	}
}

// TestSurfaceGuardFlagsUnusedAndStale runs the guard over a synthetic module.
// An uncalled export, one that only calls itself, an allowlisted export that
// gained a caller, an allowlisted name that is gone, the uncalled one of two
// same-named methods and the type named only as their receiver, an uncalled
// function declared only under the failpoint tag, unused exported types,
// vars and consts, unused unexported funcs, types (a self-referential one
// too), vars and consts, and an unused func of a main package all fail. A
// called export, an allowlisted uncalled one, methods reached only through
// sort.Interface, a function that only a failpoint-tagged file calls, used
// unexported declarations, an unexported method and a struct field that
// only encoding/json reaches, and main, init and blank declarations pass.
func TestSurfaceGuardFlagsUnusedAndStale(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module synth\n\ngo 1.24\n",
		"p/p.go": `package p

import "sort"

type A struct{}
type B struct{}

func (A) Step() {}
func (B) Step() {}

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func Sort(s []string) { sort.Sort(byLen(s)) }

func Used()    {}
func Orphan()  {}
func Self()    { Self() }
func Listed()  {}
func Revived() {}
`,
		"p/decls.go": `package p

import "encoding/json"

type Kind int

const (
	KindA Kind = iota
	KindB
)

var Table = map[string]int{}

type Spare struct{}

type node struct{ next *node }

type doc struct {
	Name string ` + "`json:\"name\"`" + `
}

func (d doc) label() string { return d.Name }

const (
	limit       = 3
	unusedLimit = 4
)

var (
	hits  int
	cache []int
)

func helper() int { return limit + hits }
func dead()       {}

func Encode() ([]byte, error) {
	_ = helper()
	return json.Marshal(doc{})
}
`,
		"p/hook.go": `//go:build failpoint

package p

func Arm()    {}
func Disarm() {}
`,
		"cmd/main.go": `package main

import "synth/p"

var _ = 1

func init() {}

func main() { p.A{}.Step(); p.Used(); p.Revived(); p.Sort(nil); p.Encode(); _ = p.KindA }

func unusedMain() {}
`,
		"cmd/hook.go": `//go:build failpoint

package main

import "synth/p"

func init() { p.Arm() }
`,
	} {
		file := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, used, err := scanAPI(root, surfaceBuilds)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"p.Listed": "test tool", "p.Revived": "test tool", "p.Gone": "test tool"}
	bad := checkSurface(decls, used, allow)
	got := strings.Join(bad, "\n")
	for _, want := range []string{
		": p.Orphan has no non-test use",
		": p.Self has no non-test use",
		": p.B has no non-test use",
		": p.B.Step has no non-test use",
		": p.Disarm has no non-test use",
		": p.KindB has no non-test use",
		": p.Table has no non-test use",
		": p.Spare has no non-test use",
		": p.node has no non-test use",
		": p.unusedLimit has no non-test use",
		": p.cache has no non-test use",
		": p.dead has no non-test use",
		": cmd.unusedMain has no non-test use",
		apiAllowlistPath + ": p.Revived now has a non-test use",
		apiAllowlistPath + ": p.Gone is no longer declared",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("guard output lacks %q:\n%s", want, got)
		}
	}
	if len(bad) != 15 {
		t.Errorf("guard raised %d complaints, want 15:\n%s", len(bad), got)
	}
	if decls, _, err := scanAPI(root, [][]string{nil}); err != nil || decls["p.Disarm"] != "" {
		t.Errorf("default build: err %v, p.Disarm declared at %q; want neither", err, decls["p.Disarm"])
	}
}
