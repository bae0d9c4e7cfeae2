package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Write is one syntactic mutation site: an assignment target, the operand of
// ++/--, the container argument of the delete and clear builtins, or the
// destination argument of the copy builtin.
type Write struct {
	// Lhs is the full expression being written through.
	Lhs ast.Expr
	// Pos anchors the diagnostic.
	Pos token.Pos
	// Elems is true when the write lands on the entries or elements Lhs
	// refers to (delete, clear, copy) rather than on Lhs itself, so a
	// shallow copy of Lhs's owner sees it too.
	Elems bool
}

// EachWrite calls fn for every mutation site in the subtree rooted at n,
// including those inside function literals.
func EachWrite(info *types.Info, n ast.Node, fn func(Write)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				fn(Write{Lhs: lhs, Pos: lhs.Pos()})
			}
		case *ast.IncDecStmt:
			fn(Write{Lhs: s.X, Pos: s.X.Pos()})
		case *ast.CallExpr:
			if b, ok := Callee(info, s).(*types.Builtin); ok && len(s.Args) > 0 {
				switch b.Name() {
				case "delete", "clear", "copy":
					fn(Write{Lhs: s.Args[0], Pos: s.Args[0].Pos(), Elems: true})
				}
			}
		}
		return true
	})
}

// WriteTarget describes how a write reaches a matched type.
type WriteTarget struct {
	// Base is the expression of the matched type: the operand of the field
	// selector written through, or the pointer a whole-value store
	// dereferences.
	Base ast.Expr
	// ViaContainer is true when the write passes through an index expression
	// or pointer dereference below the field selector, or lands on the
	// elements of what it names (Write.Elems) — mutating state the matched
	// value merely points to, which shallow copies share.
	ViaContainer bool
	// BasePointer is true when Base is a pointer to the matched type.
	BasePointer bool
}

// MatchWrite walks down a write's left-hand side and reports the outermost
// field selector whose operand type (possibly behind a pointer) satisfies
// match, or the outermost dereference that stores a whole matched value
// (*p = T{}). It returns false when the write never touches a matched type.
func MatchWrite(info *types.Info, w Write, match func(*types.Named) bool) (WriteTarget, bool) {
	via := w.Elems
	cur := w.Lhs
	for {
		switch e := cur.(type) {
		case *ast.ParenExpr:
			cur = e.X
		case *ast.IndexExpr:
			via = true
			cur = e.X
		case *ast.StarExpr:
			if n, ok := types.Unalias(info.TypeOf(e)).(*types.Named); ok && match(n) {
				return WriteTarget{Base: e.X, ViaContainer: via, BasePointer: true}, true
			}
			via = true
			cur = e.X
		case *ast.SelectorExpr:
			bt := info.TypeOf(e.X)
			if n := Named(bt); n != nil && match(n) {
				_, isPtr := types.Unalias(bt).(*types.Pointer)
				return WriteTarget{Base: e.X, ViaContainer: via, BasePointer: isPtr}, true
			}
			cur = e.X
		default:
			return WriteTarget{}, false
		}
	}
}

// IsLocalValueVar reports whether e names a function-local, non-field
// variable, or a field of one reached without a pointer — the one kind of
// base a direct field write cannot leak through, because the write lands on
// the local copy.
func IsLocalValueVar(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		if s, ok := info.Selections[sel]; !ok || s.Kind() != types.FieldVal || s.Indirect() {
			return false
		}
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() != v.Pkg().Scope()
}
