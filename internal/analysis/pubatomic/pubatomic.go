// Package pubatomic enforces the PR 5 publication protocol of the live and
// durable session layers: state crosses from the single producer to the
// lock-free readers through exactly one atomic.Pointer store, and what is
// published is immutable and must not alias state the producer keeps
// mutating.
//
// Three concrete rules, checked in packages under internal/live and
// internal/durable:
//
//  1. Single publish path — all Store/Swap/CompareAndSwap calls on one
//     atomic.Pointer field must live in a single function. A second store
//     site is a second publication protocol, and the epoch reasoning of the
//     session tests no longer covers it.
//
//  2. No aliasing at the publish site — a composite literal handed to Store
//     must not carry a 2-index slice (the producer's next append would be
//     visible through the shared backing array; use a full slice expression
//     s[:n:n] or a copy) or a bare field reference to map/slice producer
//     state.
//
//  3. Published types stay frozen — any type that appears as the argument of
//     an atomic.Pointer[T] field in the package must not have its fields
//     written anywhere (outside functions marked //fvlvet:prepublish, for
//     builders that provably run before the value escapes to Store).
package pubatomic

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the pubatomic check.
var Analyzer = &analysis.Analyzer{
	Name: "pubatomic",
	Doc: "enforces the epoch publication protocol: one atomic.Pointer store site per field, " +
		"no aliasing of mutable producer state at the publish site, and no writes to published types",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.PkgPath, "internal/live") && !strings.Contains(pass.PkgPath, "internal/durable") {
		return nil
	}

	published := publishedTypes(pass.Pkg)

	type storeSite struct {
		fn  string
		pos token.Pos
	}
	stores := map[*types.Var][]storeSite{}

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		analysis.EachFunc(file, func(fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				field, method := atomicPointerCall(pass.TypesInfo, call)
				if field == nil {
					return true
				}
				switch method {
				case "Store", "Swap", "CompareAndSwap":
					stores[field] = append(stores[field], storeSite{fn: funcDisplayName(fd), pos: call.Pos()})
					if arg := storedValue(call, method); arg != nil {
						checkAliasing(pass, arg)
					}
				}
				return true
			})

			// Rule 3: published types are frozen everywhere except marked
			// pre-publish builders.
			if analysis.HasDirective(fd.Doc, "fvlvet:prepublish") {
				return
			}
			analysis.EachWrite(pass.TypesInfo, fd.Body, func(w analysis.Write) {
				t, ok := analysis.MatchWrite(pass.TypesInfo, w, func(n *types.Named) bool {
					return published[n.Obj()]
				})
				if !ok {
					return
				}
				name := analysis.Named(pass.TypesInfo.TypeOf(t.Base)).Obj().Name()
				pass.Reportf(w.Pos, "write to %s, a type published through an atomic.Pointer: published values are immutable; "+
					"build a fresh value and publish it, or mark a pre-Store builder with //fvlvet:prepublish", name)
			})
		})
	}

	// Rule 1: one publish path per field.
	for field, sites := range stores {
		fns := map[string]bool{}
		for _, s := range sites {
			fns[s.fn] = true
		}
		if len(fns) <= 1 {
			continue
		}
		names := make([]string, 0, len(fns))
		for fn := range fns {
			names = append(names, fn)
		}
		sort.Strings(names)
		for _, s := range sites {
			pass.Reportf(s.pos, "atomic field %s is stored from %d functions (%s): the epoch protocol requires a single publish path",
				field.Name(), len(names), strings.Join(names, ", "))
		}
	}
	return nil
}

// atomicPointerCall reports whether call invokes a method of a
// sync/atomic.Pointer[T] struct field, returning the field and method name.
func atomicPointerCall(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recv := ast.Unparen(sel.X)
	if !analysis.IsNamed(info.TypeOf(recv), "sync/atomic", "Pointer") {
		return nil, ""
	}
	fieldSel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s, ok := info.Selections[fieldSel]
	if !ok {
		return nil, ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return nil, ""
	}
	return field, sel.Sel.Name
}

func storedValue(call *ast.CallExpr, method string) ast.Expr {
	switch method {
	case "Store", "Swap":
		if len(call.Args) == 1 {
			return call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			return call.Args[1]
		}
	}
	return nil
}

// checkAliasing inspects the value being published. When it is a composite
// literal (the common &Prefix{...} shape), each reference-typed element must
// be severed from producer state.
func checkAliasing(pass *analysis.Pass, arg ast.Expr) {
	lit := compositeLit(arg)
	if lit == nil {
		return
	}
	for _, elt := range lit.Elts {
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
		}
		t := pass.TypesInfo.TypeOf(value)
		if t == nil {
			continue
		}
		switch types.Unalias(t).Underlying().(type) {
		case *types.Slice:
			switch v := ast.Unparen(value).(type) {
			case *ast.SliceExpr:
				if !v.Slice3 {
					pass.Reportf(value.Pos(), "published slice %s is not capacity-capped: a later append through the producer's "+
						"alias would be visible to readers; use a full slice expression s[:n:n] or a copy", exprString(value))
				}
			case *ast.SelectorExpr, *ast.Ident:
				if isFieldRef(pass.TypesInfo, v) {
					pass.Reportf(value.Pos(), "published slice %s aliases producer state by reference; "+
						"publish a capacity-capped slice (s[:n:n]) or a copy", exprString(value))
				}
			}
		case *types.Map:
			if v := ast.Unparen(value); isFieldRef(pass.TypesInfo, v) {
				pass.Reportf(value.Pos(), "published map %s aliases producer state: maps cannot be capped; publish a copy", exprString(value))
			}
		}
	}
}

func compositeLit(arg ast.Expr) *ast.CompositeLit {
	switch v := ast.Unparen(arg).(type) {
	case *ast.CompositeLit:
		return v
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				return lit
			}
		}
	}
	return nil
}

func isFieldRef(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	return ok && v.IsField()
}

// publishedTypes collects the named struct types that appear as type
// arguments of atomic.Pointer fields declared in the package.
func publishedTypes(pkg *types.Package) map[types.Object]bool {
	out := map[types.Object]bool{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			ft := types.Unalias(st.Field(i).Type())
			named, ok := ft.(*types.Named)
			if !ok || !analysis.IsNamed(named, "sync/atomic", "Pointer") {
				continue
			}
			args := named.TypeArgs()
			if args == nil || args.Len() != 1 {
				continue
			}
			if elem := analysis.Named(args.At(0)); elem != nil && elem.Obj().Pkg() == pkg {
				out[elem.Obj()] = true
			}
		}
	}
	return out
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return fmt.Sprintf("(%s).%s", recvTypeString(fd.Recv.List[0].Type), fd.Name.Name)
}

func recvTypeString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "*" + recvTypeString(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeString(t.X)
	}
	return exprString(e)
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.SliceExpr:
		return exprString(v.X) + "[...]"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	}
	return "value"
}
