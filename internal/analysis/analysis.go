// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) on top of the standard library's
// go/ast and go/types.
//
// The repo's hardest-won guarantees — view labels are read-only after
// construction, live sessions publish prefixes through exactly one atomic
// store, durable artifacts are written sync-then-rename, failures flow
// through the internal/faults taxonomy — used to live only in DESIGN.md
// prose. The analyzers built on this package (see the sibling directories and
// cmd/fvlvet) turn each of those rules into a compiler-grade check that runs
// in CI on every change.
//
// Why not depend on golang.org/x/tools directly? The module is intentionally
// dependency-free (go.mod lists nothing), and the analyzers need only a small
// slice of the x/tools surface: a named check with a Run function over one
// type-checked package, plus positional diagnostics. Mirroring the API shape
// keeps a later migration mechanical: an Analyzer here converts to an
// x/tools analysis.Analyzer by renaming imports.
//
// # Suppression
//
// Findings are suppressed with staticcheck-style directives:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//	//lint:file-ignore <analyzer>[,<analyzer>...] <reason>
//
// An ignore comment applies to diagnostics on its own line or on the line
// directly below it (so it can sit above the offending statement); the
// file-ignore form, anywhere in a file, silences the named analyzers for the
// whole file. The reason is mandatory: an ignore without one is itself
// reported. Some analyzers additionally honor function-level declaration
// directives (for example //fvlvet:fs-boundary); those are documented on the
// analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description fvlvet gives go vet as the
	// usage of the analyzer's flag: the invariant the analyzer enforces and
	// how to suppress a finding.
	Doc string
	// Run executes the check over one package and reports findings through
	// pass.Report. The returned error aborts the whole run (reserved for
	// analyzer bugs, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed, comment-bearing syntax trees,
	// non-test files only.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the package's import path. For external test variants it is
	// normalized to the path of the package under test.
	PkgPath string
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic resolved against the file set and stamped with the
// analyzer that produced it — the unit the drivers print and the tests
// assert on.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String formats the finding the way go vet does, with the analyzer name
// appended so a reader knows which directive would suppress it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}
