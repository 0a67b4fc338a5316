package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOptionFieldsHaveCallers holds the options rule: a setting earns
// its field only when code outside the package that declares it sets
// it. Every exported, named field of an exported struct type whose name
// ends in Opts, Options or Config, declared in a non-test file under
// internal/, must be set by name in some non-test .go file of another
// package — as a composite-literal key or an assignment target. The
// commands, the facade (elle.go), elleclient and benchmark/ count;
// examples/ does not, and neither do tests. A field only tests set is a
// constant of its package (tests that need another value set an
// unexported field). The match is by field name alone, so it can only
// miss an unset field that shares its name with one set elsewhere.
func TestOptionFieldsHaveCallers(t *testing.T) {
	type field struct{ dir, typ, name string }
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> dirs setting it

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || path == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		set := func(name string) {
			if setIn[name] == nil {
				setIn[name] = map[string]bool{}
			}
			setIn[name][dir] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !n.Name.IsExported() || !strings.HasPrefix(dir, "internal/") || !optionsType(n.Name.Name) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names { // embedded fields have none
						if id.IsExported() {
							fields = append(fields, field{dir, n.Name.Name, id.Name})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no option fields under internal/")
	}
	for _, f := range fields {
		outside := false
		for dir := range setIn[f.name] {
			outside = outside || dir != f.dir
		}
		if !outside {
			t.Errorf("%s: %s.%s is set by no caller outside its package; make it a constant", f.dir, f.typ, f.name)
		}
	}
}

// optionsType reports whether a struct type's name marks it as a set of
// options.
func optionsType(name string) bool {
	return strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
}
