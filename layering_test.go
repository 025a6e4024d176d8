package paramring

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// importGraph parses the non-test files under internal/ and returns each
// package's direct dependencies on other internal packages, keyed by the
// package's path below internal/ (for example "verify").
func importGraph(t *testing.T) map[string]map[string]bool {
	t.Helper()
	const prefix = "paramring/internal/"
	deps := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		if deps[pkg] == nil {
			deps[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(p, prefix); ok {
				deps[pkg][dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return deps
}

// dependencies returns every package pkg reaches through its imports.
func dependencies(deps map[string]map[string]bool, pkg string) map[string]bool {
	seen := map[string]bool{}
	stack := []string{pkg}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dep := range deps[p] {
			if !seen[dep] {
				seen[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	return seen
}

// TestLayering pins the direction of the import graph: the verification
// engines never reach the serving layers built on them, the cluster layer
// is driven by the service, never the reverse, and the per-family memos
// (corpus) build on ltg alone, never on the verify facade or the layers
// above it. No serving layer runs the memos: the service and its workers
// verify through verify.CheckCtx alone.
func TestLayering(t *testing.T) {
	deps := importGraph(t)
	rules := map[string][]string{
		"core":      {"service", "cluster", "corpus"},
		"dsl":       {"service", "cluster", "corpus"},
		"rcg":       {"service", "cluster", "corpus"},
		"ltg":       {"service", "cluster", "corpus"},
		"explicit":  {"service", "cluster", "corpus"},
		"invariant": {"service", "cluster", "corpus"},
		"verify":    {"service", "cluster", "corpus"},
		"cluster":   {"service", "corpus"},
		"service":   {"corpus"},
		"corpus":    {"verify", "invariant", "service", "cluster"},
	}
	for pkg, forbidden := range rules {
		if deps[pkg] == nil {
			t.Fatalf("package internal/%s not found", pkg)
		}
		reach := dependencies(deps, pkg)
		for _, f := range forbidden {
			if reach[f] {
				t.Errorf("internal/%s imports internal/%s (directly or transitively)", pkg, f)
			}
		}
	}
	// The rules have teeth: the serving layers do reach the engines.
	var got []string
	for dep := range dependencies(deps, "service") {
		if dep == "verify" || dep == "cluster" || dep == "corpus" {
			got = append(got, dep)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "cluster,verify" {
		t.Fatalf("internal/service reaches %v, want cluster and verify", got)
	}
}
