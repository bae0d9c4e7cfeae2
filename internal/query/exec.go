package query

import (
	"errors"
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/core"
	"repro/internal/faults"
)

// Value is a set-query answer. Item sets are a single packed bitset row over
// the item-ID universe (bit y set = item y is in the answer); pair sets are a
// list of per-source bitset rows, sorted by source ID. Answers stay in this
// row-oriented form through every combinator — ItemIDs and PairList
// materialize them into ID slices only at the API boundary.
type Value struct {
	Kind  Kind
	Items *boolmat.Matrix // KindItems: 1×(n+1), bit 0 clear
	Pairs []PairRow       // KindPairs: ascending From, every Row non-empty
}

// PairRow is the row of pairs (From, to) for one source item: bit "to" of
// Row is set when the pair (From, to) is in the answer.
type PairRow struct {
	From int
	Row  *boolmat.Matrix
}

// ItemIDs materializes an item-set answer into ascending item IDs, in one
// allocation of the answer's size. It returns nil for pair sets and for an
// empty set.
func (v *Value) ItemIDs() []int {
	if v == nil || v.Kind != KindItems || v.Items == nil {
		return nil
	}
	n := v.Items.CountTrue()
	if n == 0 {
		return nil
	}
	ids := make([]int, 0, n)
	v.Items.EachTrueInRow(0, func(j int) { ids = append(ids, j) })
	return ids
}

// PairList materializes a pair-set answer into (from, to) pairs, sorted by
// from then to, in one allocation of the answer's size. It returns nil for
// item sets and for an empty set.
func (v *Value) PairList() [][2]int {
	if v == nil || v.Kind != KindPairs {
		return nil
	}
	n := 0
	for _, pr := range v.Pairs {
		n += pr.Row.CountTrue()
	}
	if n == 0 {
		return nil
	}
	out := make([][2]int, 0, n)
	for _, pr := range v.Pairs {
		pr.Row.EachTrueInRow(0, func(j int) { out = append(out, [2]int{pr.From, j}) })
	}
	return out
}

// Execute runs the plan against one pinned item universe using the given
// query session. The session gets a plan-scoped cache attached (EnsurePlan),
// so edge matrices, chain products and visibility rows are amortized across
// every leaf of the plan — and across subsequent plans executed on the same
// session. The session must be goroutine-confined as usual.
//
// Errors about the query's own targets (an unknown item ID, a target hidden
// in the queried view) fail the query; candidate items that a point query
// would have errored on are simply excluded from the answer, exactly as the
// set semantics of "items whose point query answers (true, nil)" demands.
func (p *Plan) Execute(s *core.QuerySession, idx *core.ItemIndex) (*Value, error) {
	if idx == nil {
		return nil, fmt.Errorf("query: nil item index: %w", faults.ErrInvalidQuery)
	}
	s.EnsurePlan(idx)
	return p.exec(p.root, s, idx)
}

func (p *Plan) exec(n *planNode, s *core.QuerySession, idx *core.ItemIndex) (*Value, error) {
	switch n.op {
	case OpDeps:
		row, err := s.DepsRow(n.label, idx, n.item)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindItems, Items: row}, nil

	case OpRevDeps:
		row, err := s.RevDepsRow(n.label, idx, n.item)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindItems, Items: row}, nil

	case OpExplain:
		// Union of the output set's dependency rows, restricted to initial
		// inputs. A hidden output contributes nothing (its provenance is not
		// part of the view); an unknown ID fails the query.
		acc := boolmat.New(1, idx.Items()+1)
		for _, it := range n.items {
			row, err := s.DepsRow(n.label, idx, it)
			if err != nil {
				if errors.Is(err, faults.ErrHiddenItem) {
					continue
				}
				return nil, err
			}
			boolmat.OrInto(acc, acc, row)
		}
		boolmat.AndInto(acc, acc, idx.InitialsRow())
		return &Value{Kind: KindItems, Items: acc}, nil

	case OpBetween:
		// Endpoint visibility under the two named views, reachability under
		// the primary view: one revdeps-row scan per visible source, masked
		// by the destination view's visibility row. Sources the primary view
		// hides are excluded, like any other unanswerable candidate.
		visA := s.VisibleRow(n.visA, idx)
		visB := s.VisibleRow(n.visB, idx)
		var pairs []PairRow
		visA.EachTrueInRow(0, func(a int) {
			row, err := s.RevDepsRow(n.label, idx, a)
			if err != nil {
				return
			}
			boolmat.AndInto(row, row, visB)
			if row.Any() {
				pairs = append(pairs, PairRow{From: a, Row: row})
			}
		})
		return &Value{Kind: KindPairs, Pairs: pairs}, nil

	case OpUnion, OpIntersect:
		va, err := p.exec(n.kids[0], s, idx)
		if err != nil {
			return nil, err
		}
		vb, err := p.exec(n.kids[1], s, idx)
		if err != nil {
			return nil, err
		}
		if va.Kind == KindItems {
			if n.op == OpUnion {
				boolmat.OrInto(va.Items, va.Items, vb.Items)
			} else {
				boolmat.AndInto(va.Items, va.Items, vb.Items)
			}
			return va, nil
		}
		if n.op == OpUnion {
			return &Value{Kind: KindPairs, Pairs: mergePairsUnion(va.Pairs, vb.Pairs)}, nil
		}
		return &Value{Kind: KindPairs, Pairs: mergePairsIntersect(va.Pairs, vb.Pairs)}, nil

	case OpProject:
		v, err := p.exec(n.kids[0], s, idx)
		if err != nil {
			return nil, err
		}
		row := boolmat.New(1, idx.Items()+1)
		for _, pr := range v.Pairs {
			if n.side == 1 {
				row.Set(0, pr.From, true)
			} else {
				boolmat.OrInto(row, row, pr.Row)
			}
		}
		return &Value{Kind: KindItems, Items: row}, nil

	default:
		return nil, fmt.Errorf("query: unexecutable node %d: %w", int(n.op), faults.ErrInvalidQuery)
	}
}

// mergePairsUnion merges two From-sorted pair lists, OR-ing rows that share a
// source. Rows of the inputs are owned by the result (executor values are
// never aliased into caches).
func mergePairsUnion(a, b []PairRow) []PairRow {
	out := make([]PairRow, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].From < b[j].From:
			out = append(out, a[i])
			i++
		case a[i].From > b[j].From:
			out = append(out, b[j])
			j++
		default:
			boolmat.OrInto(a[i].Row, a[i].Row, b[j].Row)
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergePairsIntersect keeps only sources present in both lists, AND-ing their
// rows and dropping sources whose intersection is empty.
func mergePairsIntersect(a, b []PairRow) []PairRow {
	var out []PairRow
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].From < b[j].From:
			i++
		case a[i].From > b[j].From:
			j++
		default:
			boolmat.AndInto(a[i].Row, a[i].Row, b[j].Row)
			if a[i].Row.Any() {
				out = append(out, a[i])
			}
			i, j = i+1, j+1
		}
	}
	return out
}
