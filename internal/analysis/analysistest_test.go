package analysis_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// expectation is one want entry: a regexp demanded at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// run loads the fixture packages rooted at dir and runs a (alone) over them,
// comparing diagnostics to the fixtures' want comments — the x/tools
// analysistest convention, rebuilt on the offline loader:
//
//	s.ch <- 1 // want "channel send while s.mu is held"
//
// A `// want "re1" "re2"` comment demands one diagnostic matching each
// quoted regexp on its line; a diagnostic on a line with no matching want
// fails the test, and so does a want no diagnostic satisfies. Fixtures live
// under testdata/src/<import/path> and may import each other by those
// relative paths (plus the standard library).
func run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	diags, pkgs := diagnostics(t, dir, a, paths...)
	wants := collectWants(t, pkgs)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		for i, d := range diags {
			if matched[i] || d.Pos.Line != w.line || !strings.HasSuffix(d.Pos.Filename, w.file) {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				w.met = true
				break
			}
		}
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// diagnostics loads the fixture packages and returns the analyzer's raw
// findings (after //lint:allow filtering), for tests asserting on messages
// the want syntax cannot express (the allow mechanism itself).
func diagnostics(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) ([]analysis.Diagnostic, []*load.Package) {
	t.Helper()
	pkgs, err := load.LoadFixture(dir, paths...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	driver := &analysis.Driver{Analyzers: []*analysis.Analyzer{a}}
	diags, err := driver.Run(pkgs)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	return diags, pkgs
}

// wantRe extracts the quoted patterns of a want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants scans every fixture file (sources and test files) for want
// comments.
func collectWants(t *testing.T, pkgs []*load.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						// The quoted pattern is a Go string literal: unquote it
						// so fixtures can escape regex metacharacters.
						pat, err := strconv.Unquote(m[0])
						if err != nil {
							pat = m[1]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{
							file: pos.Filename, line: pos.Line, re: re, raw: pat,
						})
					}
				}
			}
		}
	}
	return wants
}
