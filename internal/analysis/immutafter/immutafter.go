// Package immutafter enforces the PR 2 invariant that makes concurrent
// query serving sound: a core.ViewLabel is strictly read-only after
// construction. All per-query mutable state lives in a queryCtx, so one view
// label can answer any number of concurrent queries; a single stray write —
// to a label field, or through one of its reachable maps, slices, edge
// matrix tables or cached recursion chains — would reintroduce the data race
// the queryCtx refactor removed.
//
// The analyzer flags every syntactic write that lands on core.ViewLabel
// state (including its prodEdges tables and recChain caches, however they
// were reached) outside a function whose doc comment carries the
// //fvlvet:viewlabel-ctor directive — the explicit, reviewable marker of the
// construction/labeling path. A query plan holds the same two types, so the
// helpers it shares with construction build them in locals and return a new
// value rather than writing through one. Writing a field of a local
// by-value copy is allowed (the copy is private), but writes through the
// copy's maps and slices are still flagged: shallow copies share them with
// the original, which is exactly how WithMatrixFree clones stay safe.
//
// Data labels are immutable too. A data label is two (instance, port)
// references into the run labeler's table, built into a value on read, and
// its port labels' paths alias the labeler's path arena (Section 4.2.3: a
// label is never modified after assignment). So the labeler's item records
// and path arena are written only by its append path — the functions whose
// doc comment carries the //fvlvet:label-append directive — which appends
// past the end of every prefix the labeler published. Any other write to
// core.RunLabeler state, including through a published prefix copy, to a
// core.itemRecord, or into the elements of a []core.EdgeLabel (a path,
// which may alias the arena however it was reached) is flagged, and so is
// any write to core.DataLabel or
// core.PortLabel state reached through a pointer or a container, including
// an element of a port label's Path. A copy into label state and a
// whole-value store through a pointer (*p = PortLabel{}) count as writes
// for every label type.
package immutafter

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

const corePath = "repro/internal/core"

// Analyzer is the immutafter check.
var Analyzer = &analysis.Analyzer{
	Name: "immutafter",
	Doc: "flags writes to core.ViewLabel state outside //fvlvet:viewlabel-ctor construction functions " +
		"(view labels are read-only after construction so they can serve concurrent queries), " +
		"writes to the run labeler's table outside //fvlvet:label-append functions " +
		"and writes to shared core.DataLabel or core.PortLabel state (labels are never modified after assignment)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	match := func(n *types.Named) bool {
		obj := n.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != corePath {
			return false
		}
		switch obj.Name() {
		case "ViewLabel", "prodEdges", "recChain", "DataLabel", "PortLabel", "RunLabeler", "itemRecord":
			return true
		}
		return false
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		analysis.EachFunc(file, func(fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			ctor := analysis.HasDirective(fd.Doc, "fvlvet:viewlabel-ctor")
			appendPath := analysis.HasDirective(fd.Doc, "fvlvet:label-append")
			analysis.EachWrite(pass.TypesInfo, fd.Body, func(w analysis.Write) {
				t, ok := analysis.MatchWrite(pass.TypesInfo, w, match)
				if !ok {
					if !appendPath && writesEdgeLabels(pass.TypesInfo, w) {
						pass.Reportf(w.Pos, "write into a []core.EdgeLabel outside the labeler's append path: "+
							"instance paths alias the labeler's path arena; build a new path instead")
					}
					return
				}
				if !t.ViaContainer && !t.BasePointer && analysis.IsLocalValueVar(pass.TypesInfo, t.Base) {
					// Field write on a private by-value copy: safe, this is
					// the WithMatrixFree clone idiom.
					return
				}
				name := analysis.Named(pass.TypesInfo.TypeOf(t.Base)).Obj().Name()
				switch name {
				case "DataLabel", "PortLabel":
					pass.Reportf(w.Pos, "write to core.%s state: data labels are never modified after assignment, "+
						"and port labels share their instance's path; build a new label instead", name)
					return
				case "RunLabeler", "itemRecord":
					if !appendPath {
						pass.Reportf(w.Pos, "write to core.%s state outside the labeler's append path: labels are never modified "+
							"after assignment and published prefixes share the table; move the write into a //fvlvet:label-append function", name)
					}
					return
				}
				if ctor {
					return
				}
				what := "core." + name
				pass.Reportf(w.Pos, "write to %s state outside the construction path: view labels are read-only after construction; "+
					"move the mutation into a //fvlvet:viewlabel-ctor function or into the per-query context", what)
			})
		})
	}
	return nil
}

// writesEdgeLabels reports whether w stores into the elements of a
// []core.EdgeLabel: a path, which may alias the labeler's arena however it
// was reached.
func writesEdgeLabels(info *types.Info, w analysis.Write) bool {
	isPath := func(e ast.Expr) bool {
		s, ok := types.Unalias(info.TypeOf(e)).Underlying().(*types.Slice)
		return ok && analysis.IsNamed(s.Elem(), corePath, "EdgeLabel")
	}
	cur := ast.Unparen(w.Lhs)
	if w.Elems {
		return isPath(cur)
	}
	for {
		switch e := cur.(type) {
		case *ast.SelectorExpr:
			cur = ast.Unparen(e.X)
		case *ast.IndexExpr:
			if isPath(e.X) {
				return true
			}
			cur = ast.Unparen(e.X)
		default:
			return false
		}
	}
}
