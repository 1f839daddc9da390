package dronedse

// The exported-surface guard: every exported function or method declared in
// a library package must be called (or otherwise named) by some non-test
// code in the repository — the cmd/ and examples/ programs and the
// benchmark/ module included — or be listed, with a reason, in
// testdata/api_allowlist.txt. API that only tests call is deleted rather
// than kept "just in case"; the allowlist can only shrink, because an entry
// that is now used or no longer declared fails the guard too.
//
// The match is by name, not by type: an exported Step counts as used when
// any non-test file names a Step other than at a declaration. That errs
// towards passing, never towards a false alarm.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const apiAllowlistPath = "testdata/api_allowlist.txt"

// apiDecl is one exported function or method of a library package, keyed
// in scanAPI's result by dir.Name (functions) or dir.Recv.Name (methods).
type apiDecl struct {
	name string
	pos  string
}

// scanAPI parses every non-test Go file under root and returns the exported
// functions and methods of non-main packages, plus how many times each
// identifier is named outside a declaration.
func scanAPI(t *testing.T, root string) (decls map[string]apiDecl, uses map[string]int) {
	t.Helper()
	decls = map[string]apiDecl{}
	uses = map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declIdents := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fn.Name] = true
			if f.Name.Name == "main" || !fn.Name.IsExported() {
				continue
			}
			dir, _ := filepath.Rel(root, filepath.Dir(path))
			key := filepath.ToSlash(dir) + "."
			if fn.Recv != nil {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			key += fn.Name.Name
			decls[key] = apiDecl{name: fn.Name.Name, pos: fset.Position(fn.Pos()).String()}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, uses
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
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
// non-test caller that the allowlist does not excuse, and allowlist entries
// that are stale.
func checkSurface(decls map[string]apiDecl, uses map[string]int, allow map[string]string) []string {
	var bad []string
	for key, d := range decls {
		_, listed := allow[key]
		switch used := uses[d.name] > 0; {
		case !used && !listed:
			bad = append(bad, d.pos+": "+key+" has no non-test caller; delete it or add it to "+apiAllowlistPath+" with a reason")
		case used && listed:
			bad = append(bad, apiAllowlistPath+": "+key+" now has a non-test caller; drop its entry")
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
	decls, uses := scanAPI(t, ".")
	if len(decls) == 0 {
		t.Fatal("scan found no exported functions")
	}
	for _, msg := range checkSurface(decls, uses, readAllowlist(t, apiAllowlistPath)) {
		t.Error(msg)
	}
}

// TestSurfaceGuardFlagsUnusedAndStale checks the guard's verdicts on a
// synthetic surface: an uncalled export, an allowlisted export that gained a
// caller, and an allowlisted name that is gone all fail; a called export and
// an allowlisted uncalled one pass.
func TestSurfaceGuardFlagsUnusedAndStale(t *testing.T) {
	decls := map[string]apiDecl{
		"p.Used":     {name: "Used", pos: "p/a.go:1:1"},
		"p.Orphan":   {name: "Orphan", pos: "p/a.go:2:1"},
		"p.T.Listed": {name: "Listed", pos: "p/a.go:3:1"},
		"p.Revived":  {name: "Revived", pos: "p/a.go:4:1"},
	}
	uses := map[string]int{"Used": 1, "Revived": 2}
	allow := map[string]string{"p.T.Listed": "test tool", "p.Revived": "test tool", "p.Gone": "test tool"}
	bad := checkSurface(decls, uses, allow)
	got := strings.Join(bad, "\n")
	for _, want := range []string{
		"p/a.go:2:1: p.Orphan has no non-test caller",
		apiAllowlistPath + ": p.Revived now has a non-test caller",
		apiAllowlistPath + ": p.Gone is no longer declared",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("guard output lacks %q:\n%s", want, got)
		}
	}
	if len(bad) != 3 {
		t.Errorf("guard raised %d complaints, want 3:\n%s", len(bad), got)
	}
}
