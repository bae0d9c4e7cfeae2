package fvl

import (
	"context"

	"repro/internal/drl"
	"repro/internal/view"
)

// Baseline is the per-view labeling baseline the paper compares against
// (DRL, Section 6): the view of a run is materialized and every visible data
// item receives a label that is only meaningful together with that one
// view's static index. Where FVL labels a run once for all views, the
// baseline relabels it per view — which is exactly the trade-off the
// multi-view experiments measure.
type Baseline struct {
	l *drl.Labeler
}

// LabelBaseline labels an already-derived run for one view with the
// per-view baseline scheme.
func LabelBaseline(v *View, r *Run) (*Baseline, error) {
	l, err := drl.LabelRun(v.v, r.r)
	if err != nil {
		return nil, err
	}
	return &Baseline{l: l}, nil
}

// LabelBaselines labels one run for many views concurrently over the
// WithWorkers pool — the baseline's multi-view hot path. The returned slice
// is index-aligned with views. The context is observed between views:
// canceling it stops workers from claiming further views and fails with
// ErrCanceled.
func LabelBaselines(ctx context.Context, views []*View, r *Run, opts ...Option) ([]*Baseline, error) {
	o := newOptions(opts)
	unwrapped := make([]*view.View, len(views))
	for i, v := range views {
		unwrapped[i] = v.v
	}
	labelers, err := drl.LabelRunViewsContext(background(ctx), unwrapped, r.r, o.workers)
	if err != nil {
		return nil, err
	}
	out := make([]*Baseline, len(labelers))
	for i, l := range labelers {
		out[i] = &Baseline{l: l}
	}
	return out, nil
}

// Label returns the per-view label of an original data item, or false when
// the view hides the item.
func (b *Baseline) Label(itemID int) (Label, bool) {
	d, ok := b.l.Label(itemID)
	return Label{d: d}, ok
}

// Visible reports whether the original data item is visible in the view.
func (b *Baseline) Visible(itemID int) bool { return b.l.Visible(itemID) }

// Count returns the number of labeled (visible) data items.
func (b *Baseline) Count() int { return b.l.Count() }

// DependsOn answers a reachability query from two per-view labels.
func (b *Baseline) DependsOn(d1, d2 Label) (bool, error) {
	return b.l.DependsOn(d1.d, d2.d)
}

// DependsOnItems answers a reachability query for two original data items;
// hidden items fail with ErrHiddenItem.
func (b *Baseline) DependsOnItems(d1, d2 int) (bool, error) {
	return b.l.DependsOnItems(d1, d2)
}

// SizeBits returns the encoded length of a per-view label in bits.
func (b *Baseline) SizeBits(l Label) int { return b.l.SizeBits(l.d) }

// IndexSizeBits returns the size of the per-view static index in bits; it
// plays the role of the view label in the paper's space accounting.
func (b *Baseline) IndexSizeBits() int { return b.l.IndexSizeBits() }
