// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against // want comments, mirroring the contract of
// golang.org/x/tools/go/analysis/analysistest on the repo's own framework.
//
// Fixtures live under <testdata>/src/<import-path>/ (GOPATH-style, so a
// fixture can impersonate any import path an analyzer keys on, including
// repro/internal/core). A line that must be flagged carries a trailing
// comment of the form
//
//	x.f = 1 // want `regexp`
//
// with one backquoted (or double-quoted) regular expression per expected
// diagnostic on that line. Every diagnostic must be matched by a want and
// every want must be matched by a diagnostic; //lint:ignore suppression is
// applied before matching, so fixtures also prove the suppression mechanism.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package from testdata/src and checks the analyzer's
// findings against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	loader := analysis.NewLoader(testdata + "/src")
	for _, path := range pkgPaths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		findings, err := analysis.RunPackage(loader.Fset, pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		checkWants(t, loader, pkg, findings)
	}
}

type want struct {
	re      *regexp.Regexp
	raw     string
	line    int
	file    string
	matched bool
}

func checkWants(t *testing.T, loader *analysis.Loader, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				for _, raw := range splitWants(text) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					wants = append(wants, &want{re: re, raw: raw, line: pos.Line, file: pos.Filename})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.Position.Filename && w.line == f.Position.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// splitWants extracts the quoted or backquoted expectation strings of one
// want comment.
func splitWants(text string) []string {
	var out []string
	for {
		text = strings.TrimSpace(text)
		if text == "" {
			return out
		}
		quote := text[0]
		if quote != '`' && quote != '"' {
			return out
		}
		end := strings.IndexByte(text[1:], quote)
		if end < 0 {
			return out
		}
		out = append(out, text[1:1+end])
		text = text[end+2:]
	}
}
