package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinks is the docs gate CI runs: every relative markdown link
// in README.md and docs/ must point at a file that exists, and every
// in-page anchor must correspond to a heading in the target file. It
// keeps the documentation front door from rotting as files move.
func TestDocsLinks(t *testing.T) {
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("docs/ tree missing: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	if len(files) < 3 {
		t.Fatalf("expected README.md plus at least two docs pages, found %v", files)
	}

	linkRE := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(body), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue // external; not this gate's business
			}
			target, anchor := link, ""
			if i := strings.IndexByte(link, '#'); i >= 0 {
				target, anchor = link[:i], link[i+1:]
			}
			resolved := file
			if target != "" {
				resolved = filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, link, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !hasAnchor(t, resolved, anchor) {
					t.Errorf("%s: link %q: no heading matches anchor #%s in %s",
						file, link, anchor, resolved)
				}
			}
		}
	}
}

// hasAnchor reports whether a markdown file contains a heading whose
// GitHub-style slug equals the anchor.
func hasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	drop := regexp.MustCompile(`[^a-z0-9 \-]`)
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		h := strings.TrimLeft(line, "#")
		h = strings.TrimSpace(h)
		h = strings.ToLower(h)
		h = drop.ReplaceAllString(h, "")
		h = strings.ReplaceAll(h, " ", "-")
		if h == anchor {
			return true
		}
	}
	return false
}

// TestVerdictPathDoesNotImportRel keeps internal/rel what
// docs/ARCHITECTURE.md says it is — the query engine, and nothing the
// verdict depends on: among the non-test files under internal/, only
// internal/core (the CheckResult.Query surface) and rel itself may
// import it. A query is then a derivation that shares no code with the
// classifiers it is checked against.
func TestVerdictPathDoesNotImportRel(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if pkg := filepath.ToSlash(filepath.Dir(path)); pkg == "internal/core" || pkg == "internal/rel" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/rel"` {
				t.Errorf("%s imports repro/internal/rel: the verdict path reads its own tables", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
