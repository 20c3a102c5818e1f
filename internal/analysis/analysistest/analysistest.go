// Package analysistest runs an analyzer over fixture packages and compares
// its diagnostics against `// want` expectations embedded in the fixtures —
// the same contract as golang.org/x/tools/go/analysis/analysistest, rebuilt
// on the repository's stdlib-only driver.
//
// Layout: <testdata>/src/<pkg>/*.go. Expectations are comments of the form
//
//	t.Put(k, v) // want `Tree.Put called outside a shardWrite body`
//
// where each backquoted or double-quoted string is a regular expression that
// must match a diagnostic reported on that line. Every diagnostic must be
// expected and every expectation must fire, or the test fails. Fixtures may
// also carry //nolint comments to exercise suppression.
package analysistest

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// sharedLoader caches stdlib type-checking across every fixture package a
// test binary runs. Fixture imports are resolved from the current directory,
// which is always inside the module during `go test`.
var sharedLoader = load.NewLoader(".")

// Run checks analyzer a against the named fixture packages under
// testdata/src. With no pkgs it defaults to package "a".
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	if len(pkgs) == 0 {
		pkgs = []string{"a"}
	}
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(testdata, "src", pkg), pkg, a)
	}
}

// TestData returns the absolute path of the calling package's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	source  string
	matched bool
}

func runPackage(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	fset := sharedLoader.Fset()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		files = append(files, f)
		names = append(names, name)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no fixture files in %s", a.Name, dir)
	}
	tpkg, info, err := sharedLoader.CheckFiles(pkgPath, files)
	if err != nil {
		t.Fatalf("%s: fixture does not type-check: %v", a.Name, err)
	}
	pkg := &load.Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}

	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, w := range parseWants(t, pos.String(), c.Text) {
					wants = append(wants, &expectation{
						file:   pos.Filename,
						line:   pos.Line,
						re:     w.re,
						source: w.source,
					})
				}
			}
		}
	}

	findings, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	for _, f := range findings {
		if !consume(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, f)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q did not fire", a.Name, w.file, w.line, w.source)
		}
	}
}

func consume(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

type wantPattern struct {
	re     *regexp.Regexp
	source string
}

// parseWants extracts the string literals following `want` in a comment.
func parseWants(t *testing.T, at, text string) []wantPattern {
	t.Helper()
	idx := strings.Index(text, "want ")
	if idx < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[idx+len("want "):])
	var out []wantPattern
	for rest != "" {
		var lit string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquote in want comment", at)
			}
			lit, rest = rest[1:1+end], rest[2+end:]
		case '"':
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				t.Fatalf("%s: bad quoted want pattern: %v", at, err)
			}
			unq, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: bad quoted want pattern: %v", at, err)
			}
			lit, rest = unq, rest[len(q):]
		default:
			t.Fatalf("%s: want pattern must be a quoted or backquoted string, got %q", at, rest)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: want pattern %q: %v", at, lit, err)
		}
		out = append(out, wantPattern{re: re, source: lit})
		rest = strings.TrimSpace(rest)
	}
	return out
}
