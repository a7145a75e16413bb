package areplica

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdInterfaceMethods are the exported methods under internal/ that no
// code names because the standard library calls them through an
// interface. Nothing else may be listed: an export that only tests use
// is deleted or moved into the test that uses it.
var stdInterfaceMethods = map[string]string{
	"internal/engine.evHeap.Less":          "container/heap.Interface",
	"internal/fleet.ruleHeap.Less":         "container/heap.Interface",
	"internal/retry.permanentError.Unwrap": "errors.Unwrap",
	"internal/simrand.source.Int63":        "math/rand.Source",
}

// srcFile is one parsed non-test Go file and the directory it sits in,
// relative to the module root.
type srcFile struct {
	dir  string
	file *ast.File
}

// unusedExports returns, sorted, every exported function, method, type,
// variable and constant declared in a file under internal/ whose name no
// file in files uses. Uses are matched by name alone, so the result is a
// lower bound. Names are reported as "dir.Name" or "dir.Recv.Name";
// those in allow are skipped.
func unusedExports(files []srcFile, allow map[string]string) []string {
	// uses counts each name's identifiers minus its declarations: a
	// declaration names what it declares, which is not a use.
	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.Ident:
				uses[d.Name]++
			case *ast.FuncDecl:
				uses[d.Name.Name]--
			case *ast.TypeSpec:
				uses[d.Name.Name]--
			case *ast.ValueSpec:
				for _, id := range d.Names {
					uses[id.Name]--
				}
			case *ast.Field:
				for _, id := range d.Names {
					uses[id.Name]--
				}
			}
			return true
		})
	}
	var unused []string
	report := func(dir, recv string, id *ast.Ident) {
		if !id.IsExported() || uses[id.Name] > 0 {
			return
		}
		name := dir + "." + id.Name
		if recv != "" {
			name = dir + "." + recv + "." + id.Name
		}
		if _, ok := allow[name]; !ok {
			unused = append(unused, name)
		}
	}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				report(f.dir, recvName(d), d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(f.dir, "", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(f.dir, "", id)
						}
					}
				}
			}
		}
	}
	sort.Strings(unused)
	return unused
}

// recvName is the receiver's type name of a method, "" for a function.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestNoTestOnlyExports keeps internal/ free of exported names that only
// tests use: every one must be named by non-test code somewhere in the
// module (cmd/, bench/, the facade or another internal package).
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, srcFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unusedExports(files, stdInterfaceMethods) {
		t.Errorf("%s is exported but no non-test code names it: delete it or move it into its test", name)
	}
}

// TestUnusedExportsFixture pins the checker on a parsed source: an
// unused export is flagged even though a struct field declares the same
// name, a used one and an allow-listed Less are not, and nothing outside
// internal/ is checked.
func TestUnusedExportsFixture(t *testing.T) {
	const lib = `package p

type byAge []int

func (b byAge) Less(i, j int) bool { return b[i] < b[j] }

type Config struct{ Unused int }

func Used() {}

func Unused() {}
`
	const user = `package q

import "p"

var _ = p.Used
var _ = p.Config{}

func Facade() {}
`
	fset := token.NewFileSet()
	parse := func(src string) *ast.File {
		f, err := parser.ParseFile(fset, "", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	files := []srcFile{{"internal/p", parse(lib)}, {"cmd/q", parse(user)}}
	allow := map[string]string{"internal/p.byAge.Less": "sort.Interface"}
	got := strings.Join(unusedExports(files, allow), " ")
	if got != "internal/p.Unused" {
		t.Fatalf("unusedExports = %q, want %q", got, "internal/p.Unused")
	}
	got = strings.Join(unusedExports(files, nil), " ")
	if want := "internal/p.Unused internal/p.byAge.Less"; got != want {
		t.Fatalf("without the allow-list, unusedExports = %q, want %q", got, want)
	}
}
