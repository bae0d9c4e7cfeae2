package core

// Concurrent-query tests: since the query-context refactor a ViewLabel is
// strictly read-only after construction, so one label must serve any number
// of goroutines at once, for all three variants — including the
// graph-search (space-efficient) path, whose per-query closure cache lives
// in the per-goroutine query context. Run with -race: these tests exist to
// catch shared mutable state reappearing on the query path.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/run"
	"repro/internal/workloads"
)

type queryPair struct {
	d1, d2 DataLabel
	want   bool
}

// concurrencyFixture labels one BioAID run and one medium grey-box view for
// every variant, and samples pairs with their expected answers (computed
// serially with the query-efficient label; all variants must agree).
func concurrencyFixture(t *testing.T, pairCount int) (map[Variant]*ViewLabel, []queryPair) {
	t.Helper()
	spec := workloads.BioAID()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 1500, Rand: rand.New(rand.NewSource(31))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "shared", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(32)),
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[Variant]*ViewLabel{}
	for _, variant := range []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient} {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			t.Fatalf("labeling view (%v): %v", variant, err)
		}
		labels[variant] = vl
	}
	proj, err := run.Project(r, v)
	if err != nil {
		t.Fatal(err)
	}
	visible := proj.VisibleItems()
	rng := rand.New(rand.NewSource(33))
	pairs := make([]queryPair, pairCount)
	oracle := labels[VariantQueryEfficient]
	for i := range pairs {
		d1, _ := labeler.Label(visible[rng.Intn(len(visible))])
		d2, _ := labeler.Label(visible[rng.Intn(len(visible))])
		want, err := oracle.DependsOn(d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = queryPair{d1: d1, d2: d2, want: want}
	}
	return labels, pairs
}

// TestConcurrentMixedVariantQueries fires 12 goroutines — four per variant —
// against three shared view labels of the same view, every goroutine
// checking each answer against the serial oracle. Under -race this fails if
// any query ever writes label state.
func TestConcurrentMixedVariantQueries(t *testing.T) {
	labels, pairs := concurrencyFixture(t, 150)
	variants := []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient}

	const goroutines = 12
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		variant := variants[g%len(variants)]
		vl := labels[variant]
		offset := g // start each goroutine elsewhere in the pair list
		go func() {
			defer wg.Done()
			for i := range pairs {
				p := pairs[(i+offset)%len(pairs)]
				got, err := vl.DependsOn(p.d1, p.d2)
				if err != nil {
					errc <- err
					return
				}
				if got != p.want {
					errc <- &mismatchError{variant: variant, got: got, want: p.want}
					return
				}
			}
			errc <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct {
	variant   Variant
	got, want bool
}

func (e *mismatchError) Error() string {
	return "concurrent query over variant " + e.variant.String() + " disagreed with the serial oracle"
}

// TestMatrixFreeCopySharesLabelSafely checks the WithMatrixFree contract:
// the shallow copy and the original answer queries concurrently (four
// goroutines each) and agree with each other.
func TestMatrixFreeCopySharesLabelSafely(t *testing.T) {
	labels, pairs := concurrencyFixture(t, 150)
	vl := labels[VariantQueryEfficient]
	mf := vl.WithMatrixFree()

	const perLabel = 4
	errc := make(chan error, 2*perLabel)
	var wg sync.WaitGroup
	wg.Add(2 * perLabel)
	for g := 0; g < 2*perLabel; g++ {
		label := vl
		if g%2 == 1 {
			label = mf
		}
		go func() {
			defer wg.Done()
			for _, p := range pairs {
				got, err := label.DependsOn(p.d1, p.d2)
				if err != nil {
					errc <- err
					return
				}
				if got != p.want {
					errc <- &mismatchError{variant: label.Variant(), got: got, want: p.want}
					return
				}
			}
			errc <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < 2*perLabel; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQuerySessions exercises the pinned-context path the batch
// engine uses: one QuerySession per goroutine, all against one shared
// space-efficient label (the variant whose queries actually populate the
// context's closure cache).
func TestConcurrentQuerySessions(t *testing.T) {
	labels, pairs := concurrencyFixture(t, 80)
	vl := labels[VariantSpaceEfficient]

	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			s := NewQuerySession()
			defer s.Close()
			for _, p := range pairs {
				got, err := s.DependsOn(vl, p.d1, p.d2)
				if err != nil {
					errc <- err
					return
				}
				if got != p.want {
					errc <- &mismatchError{variant: vl.Variant(), got: got, want: p.want}
					return
				}
			}
			errc <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
