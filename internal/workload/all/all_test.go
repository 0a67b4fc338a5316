package all

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAnalyzersExportOnlyAnalyze holds every workload package imported
// above to one exported name: its Analyze, which returns
// workload.Analysis. What an analyzer infers reaches the checker through
// that one type; per-package result types and accessors would restate it.
func TestAnalyzersExportOnlyAnalyze(t *testing.T) {
	fset := token.NewFileSet()
	self, err := parser.ParseFile(fset, "all.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(self.Imports) == 0 {
		t.Fatal("all.go imports no workload package")
	}
	for _, imp := range self.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join("..", "..", strings.TrimPrefix(path, "repro/internal/"))
		if got := exportedNames(t, fset, dir); !slices.Equal(got, []string{"Analyze"}) {
			t.Errorf("%s exports %v, want only [Analyze]", path, got)
		}
	}
}

// exportedNames lists the exported top-level names — functions, types,
// constants and variables; not methods — declared by the non-test files
// in dir, sorted.
func exportedNames(t *testing.T, fset *token.FileSet, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no exported names in %s", dir)
	}
	slices.Sort(names)
	return names
}
