package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package: what a driver hands to the
// analyzers as a Pass.
type Package struct {
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads and type-checks analyzer test fixtures entirely from source,
// with no network, no module cache and no external processes. Import paths
// resolve in two steps:
//
//   - a path maps to Dir/<path> if that directory exists (GOPATH-style
//     layout, so a fixture can impersonate any import path);
//   - everything else resolves into GOROOT/src (the standard library,
//     including its vendored golang.org/x dependencies).
//
// Standard-library packages are type-checked without AST retention or
// types.Info; fixture packages keep their syntax for analysis.
type Loader struct {
	Fset *token.FileSet
	Dir  string // fixture root: the testdata/src directory

	ctx  build.Context
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg      *Package
	err      error
	building bool
}

// NewLoader returns a loader rooted at the fixture tree dir.
func NewLoader(dir string) *Loader {
	ctx := build.Default
	// Without cgo the standard library selects its pure-Go fallbacks, which
	// is exactly what source-level type-checking can digest.
	ctx.CgoEnabled = false
	return &Loader{
		Fset: token.NewFileSet(),
		Dir:  dir,
		ctx:  ctx,
		pkgs: map[string]*loadEntry{},
	}
}

// Load loads the package at the given import path with full syntax and type
// information, ready to be analyzed.
func (l *Loader) Load(path string) (*Package, error) {
	return l.load(path, true)
}

// Import implements types.Importer for the type-checker's benefit:
// dependencies keep types only.
func (l *Loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path, false)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *Loader) load(path string, target bool) (*Package, error) {
	if path == "unsafe" {
		return &Package{PkgPath: path, Types: types.Unsafe}, nil
	}
	if e, ok := l.pkgs[path]; ok {
		if e.building {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		if target && e.err == nil && e.pkg.Info == nil {
			return nil, fmt.Errorf("analysis: %q was loaded without syntax", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{building: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.check(path)
	e.building = false
	return e.pkg, e.err
}

func (l *Loader) dirFor(path string) (string, error) {
	goroot := l.ctx.GOROOT
	for _, dir := range []string{
		filepath.Join(l.Dir, filepath.FromSlash(path)),
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q", path)
}

func (l *Loader) check(path string) (*Package, error) {
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	// Packages under the loader's root keep their syntax and resolution info
	// so they can serve as analysis targets no matter whether they were first
	// reached as a target or as a dependency of one — a package must be
	// type-checked exactly once, or two targets could see two incompatible
	// instances of a shared dependency. Standard-library packages only
	// contribute types.
	target := strings.HasPrefix(dir, l.Dir+string(filepath.Separator))
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: scanning %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	var info *types.Info
	if target {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
	}
	var firstErr error
	cfg := types.Config{
		Importer:    l,
		Sizes:       types.SizesFor("gc", l.ctx.GOARCH),
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{PkgPath: path, Types: tpkg}
	if target {
		p.Files = files
		p.Info = info
	}
	return p, nil
}
