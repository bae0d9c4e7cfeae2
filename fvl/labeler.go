package fvl

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/view"
)

// Variant selects how much reachability information a view label
// materializes, trading view-labeling overhead against query time
// (Sections 4.3 and 4.4.3 of the paper).
type Variant int

const (
	// SpaceEfficient stores only the view's full dependency assignment;
	// reachability matrices are recomputed by graph search at query time.
	SpaceEfficient Variant = iota
	// Materialized stores all reachability matrices; recursion chains are
	// resolved by divide-and-conquer matrix powers at query time. (This is
	// the paper's "default" variant.)
	Materialized
	// QueryEfficient additionally materializes per-recursion prefix products
	// and periodic powers, so recursion chains resolve in constant time.
	QueryEfficient
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case SpaceEfficient:
		return "space-efficient"
	case Materialized:
		return "materialized"
	case QueryEfficient:
		return "query-efficient"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

func (v Variant) core() (core.Variant, error) {
	switch v {
	case SpaceEfficient:
		return core.VariantSpaceEfficient, nil
	case Materialized:
		return core.VariantDefault, nil
	case QueryEfficient:
		return core.VariantQueryEfficient, nil
	default:
		return 0, fmt.Errorf("fvl: unknown variant %d", int(v))
	}
}

func variantFromCore(v core.Variant) Variant {
	switch v {
	case core.VariantSpaceEfficient:
		return SpaceEfficient
	case core.VariantDefault:
		return Materialized
	default:
		return QueryEfficient
	}
}

// ParseVariant maps a variant name (as printed by Variant.String, plus the
// paper's "default" for Materialized) back to the variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "space-efficient":
		return SpaceEfficient, nil
	case "materialized", "default":
		return Materialized, nil
	case "query-efficient":
		return QueryEfficient, nil
	default:
		return 0, fmt.Errorf("fvl: unknown variant %q (want space-efficient, materialized or query-efficient)", s)
	}
}

// options is the shared configuration of NewLabeler and Open.
type options struct {
	variant  Variant
	workers  int
	snapshot io.Writer
}

func newOptions(opts []Option) options {
	o := options{variant: QueryEfficient}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Option configures a Labeler or a Service.
type Option func(*options)

// WithVariant selects the view-label variant (default QueryEfficient).
func WithVariant(v Variant) Option { return func(o *options) { o.variant = v } }

// WithWorkers sets the worker-pool size used by batch queries and parallel
// multi-view labeling. Zero or negative means GOMAXPROCS; this is the single
// normalization rule of the whole system (engine.EffectiveWorkers).
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithSnapshot registers a writer that receives a validated binary snapshot
// of the scheme and its view labels: Open writes it, through
// Service.Snapshot, once the service is built. Load the artifact back with
// OpenSnapshot.
func WithSnapshot(w io.Writer) Option { return func(o *options) { o.snapshot = w } }

// Labeler is the labeling half of the system: it computes data labels for
// runs (φr) and static labels for views (φv) of one specification. It
// replaces the scattered constructors of the internal packages — scheme
// construction, run labeling and view labeling sit behind one type
// configured with functional options. Persisting labels is the Service's
// job (Service.Snapshot).
//
// A Labeler holds no mutable state and is safe for concurrent use.
type Labeler struct {
	spec   *Spec
	scheme *core.Scheme
	opt    options
}

// NewLabeler builds the labeling scheme for a specification: the static
// preprocessing of the production graph and its recursions (Section 4.1).
// The scheme is compact when the grammar is strictly linear-recursive
// (Theorem 6); otherwise — exactly when the compact scheme fails with
// ErrNotLinearRecursive — it is the Theorem-1 basic scheme, which labels
// every safe specification with labels that grow with the nesting depth of
// the run. IsBasic reports which one was built.
func NewLabeler(spec *Spec, opts ...Option) (*Labeler, error) {
	if spec == nil {
		return nil, fmt.Errorf("fvl: nil specification")
	}
	o := newOptions(opts)
	if _, err := o.variant.core(); err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme(spec.spec)
	if errors.Is(err, ErrNotLinearRecursive) {
		scheme, err = core.NewSchemeBasic(spec.spec)
	}
	if err != nil {
		return nil, err
	}
	return &Labeler{spec: spec, scheme: scheme, opt: o}, nil
}

// Variant returns the view-label variant the labeler was configured with.
func (l *Labeler) Variant() Variant { return l.opt.variant }

// IsBasic reports whether the labeler uses the Theorem-1 basic scheme: the
// specification's grammar is not strictly linear-recursive.
func (l *Labeler) IsBasic() bool { return l.scheme.IsBasic() }

// Attach registers an online labeler on the run: every data item produced
// from now on (and every item already present — the derivation so far is
// replayed) is labeled the moment it is created. This is the dynamic
// labeling mode of the paper.
func (l *Labeler) Attach(r *Run) (*RunLabels, error) {
	rl := l.scheme.NewRunLabeler()
	if err := r.r.AddObserver(rl); err != nil {
		return nil, err
	}
	return &RunLabels{scheme: l.scheme, rl: rl}, nil
}

// Label labels an already-derived run by replaying its derivation. The
// context is observed between derivation steps: canceling it aborts the
// replay with ErrCanceled.
func (l *Labeler) Label(ctx context.Context, r *Run) (*RunLabels, error) {
	rl, err := l.scheme.LabelRunContext(background(ctx), r.r)
	if err != nil {
		return nil, err
	}
	return &RunLabels{scheme: l.scheme, rl: rl}, nil
}

// LabelView computes the static label φv(U) of a safe view using the
// labeler's variant. Unsafe views fail with ErrUnsafeView; views over a
// different specification fail with ErrForeignLabel.
func (l *Labeler) LabelView(v *View) (*ViewLabel, error) {
	cv, err := l.opt.variant.core()
	if err != nil {
		return nil, err
	}
	vl, err := l.scheme.LabelView(v.v, cv)
	if err != nil {
		return nil, err
	}
	return &ViewLabel{vl: vl, view: v}, nil
}

// LabelViews labels several distinct views concurrently over the labeler's
// worker pool (WithWorkers, via engine.ForEach's shared claim loop). The
// returned slice is index-aligned with the input. The context is observed
// between views: canceling it stops workers from claiming further views and
// fails with ErrCanceled.
func (l *Labeler) LabelViews(ctx context.Context, views ...*View) ([]*ViewLabel, error) {
	labels := make([]*ViewLabel, len(views))
	err := engine.ForEach(background(ctx), l.opt.workers, len(views), func(i int) error {
		vl, err := l.LabelView(views[i])
		labels[i] = vl
		return err
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

// dedupeByView keeps one label per view (first occurrence wins; relabelings
// of an equal view are deterministic duplicates) and rejects two genuinely
// different views that share a name. Equality is semantic — same
// specification, same ∆′, same λ′ — because constructors like DefaultView
// build a fresh value per call and repeated use must not be an error.
func dedupeByView(computed []*ViewLabel) ([]*ViewLabel, error) {
	byName := map[string]*ViewLabel{}
	var labels []*ViewLabel
	for _, vl := range computed {
		name := vl.View().Name()
		prev, ok := byName[name]
		if !ok {
			byName[name] = vl
			labels = append(labels, vl)
			continue
		}
		if !sameView(prev.vl.View(), vl.vl.View()) {
			return nil, fmt.Errorf("fvl: two different views named %q were labeled; rename one before snapshotting or serving", name)
		}
	}
	return labels, nil
}

// sameView reports whether the two views are semantically identical: the
// labels computed from them are then interchangeable.
func sameView(a, b *view.View) bool {
	if a == b {
		return true
	}
	if a.Spec != b.Spec || len(a.Include) != len(b.Include) || len(a.Deps) != len(b.Deps) {
		return false
	}
	for m := range a.Include {
		if !b.Include[m] {
			return false
		}
	}
	for m, mat := range a.Deps {
		other, ok := b.Deps[m]
		if !ok || !mat.Equal(other) {
			return false
		}
	}
	return true
}

// background normalizes a nil context.
func background(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// RunLabels holds the data labels of one run: φr(d) for every data item d,
// assigned online and never modified afterwards. Labels remain valid for
// every view, present and future — that is the view-adaptive property.
type RunLabels struct {
	scheme *core.Scheme
	rl     *core.RunLabeler
}

// Label returns the label of the data item, or false when the item carries
// no label (unknown ID).
func (r *RunLabels) Label(itemID int) (Label, bool) {
	d, ok := r.rl.Label(itemID)
	return Label{d: d}, ok
}

// Count returns the number of labeled data items.
func (r *RunLabels) Count() int { return r.rl.Count() }

// SizeBits returns the encoded length of the item's label in bits.
func (r *RunLabels) SizeBits(itemID int) (int, bool) {
	d, ok := r.rl.Label(itemID)
	if !ok {
		return 0, false
	}
	return r.scheme.Codec().SizeBits(d), true
}

// Encode returns the item's label in the scheme's bit-level wire encoding,
// together with the number of significant bits.
func (r *RunLabels) Encode(itemID int) (buf []byte, bits int, ok bool) {
	d, ok := r.rl.Label(itemID)
	if !ok {
		return nil, 0, false
	}
	buf, bits = r.scheme.Codec().Encode(d)
	return buf, bits, true
}

// Decode parses a label from the scheme's wire encoding (the inverse of
// Encode). The input is treated as untrusted: corrupt encodings yield
// errors, never panics.
func (r *RunLabels) Decode(buf []byte, bits int) (Label, error) {
	d, err := r.scheme.Codec().Decode(buf, bits)
	return Label{d: d}, err
}

// Label is the label φr(d) of one data item: the pair of the producing and
// consuming port labels. A label is meaningful for every view over the
// specification it was computed for. Labels are values; the zero Label has
// no ports.
type Label struct {
	d core.DataLabel
}

// String renders the label in the paper's notation.
func (l Label) String() string { return l.d.String() }

// IsInitialInput reports whether the label belongs to an initial input of
// the run.
func (l Label) IsInitialInput() bool { return l.d.IsInitialInput() }

// IsFinalOutput reports whether the label belongs to a final output of the
// run.
func (l Label) IsFinalOutput() bool { return l.d.IsFinalOutput() }

// ViewLabel is the static label φv(U) of one safe view. Combined with two
// data labels it answers "does d2 depend on d1 with respect to this view?"
// without touching the run. A view label is read-only after construction and
// safe for any number of concurrent queries.
type ViewLabel struct {
	vl   *core.ViewLabel
	view *View
}

// View returns the view the label was computed for.
func (v *ViewLabel) View() *View { return v.view }

// Variant returns the label's variant.
func (v *ViewLabel) Variant() Variant { return variantFromCore(v.vl.Variant()) }

// SizeBits returns the size of the view label in bits, the measure of the
// paper's Figure 19.
func (v *ViewLabel) SizeBits() int { return v.vl.SizeBits() }

// DependsOn reports whether the data item labeled d2 depends on the data
// item labeled d1 with respect to the view. Items the view hides fail with
// ErrHiddenItem.
func (v *ViewLabel) DependsOn(d1, d2 Label) (bool, error) {
	return v.vl.DependsOn(d1.d, d2.d)
}

// Visible reports whether the labeled data item is visible in the view.
func (v *ViewLabel) Visible(d Label) bool { return v.vl.Visible(d.d) }

// MatrixFree returns a copy of the view label whose decoding short-circuits
// products of complete or empty matrices (the Matrix-Free FVL of Section
// 6.4). Always correct; pays off on coarse-grained views. The copy shares
// storage with the original and both can serve queries concurrently.
func (v *ViewLabel) MatrixFree() *ViewLabel {
	return &ViewLabel{vl: v.vl.WithMatrixFree(), view: v.view}
}
