// Package immutafter enforces the PR 2 invariant that makes concurrent
// query serving sound: a core.ViewLabel is strictly read-only after
// construction. All per-query mutable state lives in a queryCtx, so one view
// label can answer any number of concurrent queries; a single stray write —
// to a label field, or through one of its reachable maps, slices or cached
// recursion chains — would reintroduce the data race the queryCtx refactor
// removed.
//
// The analyzer flags every syntactic write that lands on core.ViewLabel
// state (including its recChain caches) outside a function whose doc comment
// carries the //fvlvet:viewlabel-ctor directive — the explicit, reviewable
// marker of the construction/labeling path. Writing a field of a local
// by-value copy is allowed (the copy is private), but writes through the
// copy's maps and slices are still flagged: shallow copies share them with
// the original, which is exactly how WithMatrixFree clones stay safe.
//
// Data and port labels are immutable too, with no construction exception:
// the run labeler builds every one with a composite literal and never
// modifies it after assignment (Section 4.2.3), which is what lets every
// port label created at one instance share that instance's path and a live
// session publish the labeler's own label slice. Any write to
// core.DataLabel or core.PortLabel state, including an element of a port
// label's Path, is flagged. A copy into label state and a whole-value store
// through a pointer (*p = PortLabel{}) count as writes for every label type.
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
		"(view labels are read-only after construction so they can serve concurrent queries) " +
		"and every write to core.DataLabel or core.PortLabel state (labels are never modified after assignment)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	match := func(n *types.Named) bool {
		obj := n.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != corePath {
			return false
		}
		switch obj.Name() {
		case "ViewLabel", "recChain", "DataLabel", "PortLabel":
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
			analysis.EachWrite(pass.TypesInfo, fd.Body, func(w analysis.Write) {
				t, ok := analysis.MatchWrite(pass.TypesInfo, w, match)
				if !ok {
					return
				}
				if !t.ViaContainer && !t.BasePointer && analysis.IsLocalValueVar(pass.TypesInfo, t.Base) {
					// Field write on a private by-value copy: safe, this is
					// the WithMatrixFree clone idiom.
					return
				}
				name := analysis.Named(pass.TypesInfo.TypeOf(t.Base)).Obj().Name()
				if name == "DataLabel" || name == "PortLabel" {
					pass.Reportf(w.Pos, "write to core.%s state: data labels are never modified after assignment, "+
						"and port labels share their instance's path; build a new label instead", name)
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
