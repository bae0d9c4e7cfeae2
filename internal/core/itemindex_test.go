package core

// Differential and lineage tests for the epoch-incremental item index: an
// index grown by Extend over a run's epoch prefixes must be indistinguishable
// from one built from scratch at the same prefix, and every index a lineage
// published must keep its answers while the lineage grows past it. Run with
// -race: the lineage test queries an index while its builder extends it.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/faults"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// indexFixture is one labeled run with a grey-box view labeled under every
// variant.
type indexFixture struct {
	name string
	lab  *RunLabeler
	vls  []*ViewLabel
}

func newIndexFixture(tb testing.TB, name string, spec *workflow.Specification, size int, seed int64) indexFixture {
	tb.Helper()
	scheme, err := NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		tb.Fatal(err)
	}
	lab, err := scheme.LabelRun(r)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "grey", Composites: 6, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := indexFixture{name: name, lab: lab}
	for _, variant := range []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient} {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			tb.Fatal(err)
		}
		f.vls = append(f.vls, vl)
	}
	return f
}

func indexFixtures(tb testing.TB) []indexFixture {
	return []indexFixture{
		newIndexFixture(tb, "bioaid", workloads.BioAID(), 300, 11),
		newIndexFixture(tb, "synthetic", workloads.Synthetic(workloads.SyntheticParams{
			WorkflowSize: 12, ModuleDegree: 3, NestingDepth: 2, RecursionLength: 2,
		}), 300, 12),
	}
}

// randomCuts returns ascending epoch cut points ending at n: runs of
// single-item steps (back-to-back one-step extensions), empty steps (a new
// epoch that produced nothing) and multi-item jumps.
func randomCuts(rng *rand.Rand, n int) []int {
	var cuts []int
	for cut := 0; cut < n; {
		switch rng.Intn(4) {
		case 0:
			for i := 0; i < 3 && cut < n; i++ {
				cut++
				cuts = append(cuts, cut)
			}
			continue
		case 1:
		default:
			cut = min(cut+1+rng.Intn(n/4), n)
		}
		cuts = append(cuts, cut)
	}
	return cuts
}

// groupsByNode maps each owner to its members, over all of its groups.
func groupsByNode(t groupTable) map[int32][]member {
	m := map[int32][]member{}
	for i := range t.groups {
		node, members := t.group(i)
		m[node] = append(m[node], members...)
	}
	return m
}

// pathOrder sorts the positions of t's groups from scratch by their owners'
// paths, ties by position: the order an index's lineage must keep.
func pathOrder(t groupTable, paths [][]EdgeLabel) []int32 {
	order := make([]int32, len(t.groups))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return comparePaths(paths[t.groups[a].node], paths[t.groups[b].node])
	})
	return order
}

// samePathOrder fails unless each side of idx keeps its groups in path
// order.
func samePathOrder(tb testing.TB, idx *ItemIndex) {
	tb.Helper()
	for side, t := range [2]groupTable{idx.src, idx.dst} {
		if want := pathOrder(t, idx.paths); !slices.Equal(t.order, want) {
			tb.Fatalf("n=%d: side %d keeps its %d groups in the order %v, want %v", idx.n, side, len(t.groups), t.order, want)
		}
	}
}

// splitOwners counts the owners with more than one group on either side of
// idx: those whose order the position tie-break decides.
func splitOwners(idx *ItemIndex) int {
	n := 0
	for _, t := range [2]groupTable{idx.src, idx.dst} {
		seen := map[int32]int{}
		for _, g := range t.groups {
			if seen[g.node]++; seen[g.node] == 2 {
				n++
			}
		}
	}
	return n
}

// sameStructure fails unless got and want hold the same items and instance
// paths, with the same members per group owner, and both keep their groups
// in path order.
func sameStructure(tb testing.TB, got, want *ItemIndex) {
	tb.Helper()
	samePathOrder(tb, got)
	samePathOrder(tb, want)
	if got.Epoch() != want.Epoch() || got.Items() != want.Items() {
		tb.Fatalf("index at epoch %d of %d items, want epoch %d of %d", got.Epoch(), got.Items(), want.Epoch(), want.Items())
	}
	for id := 0; id <= want.n+1; id++ {
		if got.Has(id) != want.Has(id) {
			tb.Fatalf("n=%d: item %d held %v, want %v", want.n, id, got.Has(id), want.Has(id))
		}
	}
	if len(got.paths) != len(want.paths) {
		tb.Fatalf("n=%d: %d instance paths, want %d", want.n, len(got.paths), len(want.paths))
	}
	for i := range want.paths {
		if (got.paths[i] == nil) != (want.paths[i] == nil) || !slices.Equal(got.paths[i], want.paths[i]) {
			tb.Fatalf("n=%d: instance %d has path %v, want %v", want.n, i, got.paths[i], want.paths[i])
		}
	}
	for side, pair := range [2][2]groupTable{{got.src, want.src}, {got.dst, want.dst}} {
		if !maps.EqualFunc(groupsByNode(pair[0]), groupsByNode(pair[1]), slices.Equal) {
			tb.Fatalf("n=%d: side %d groups differ per node", want.n, side)
		}
	}
	if !slices.Equal(got.initials, want.initials) || !slices.Equal(got.finals, want.finals) {
		tb.Fatalf("n=%d: boundary members differ", want.n)
	}
}

// indexAnswers is everything the set scans answer over one index under one
// label: deps and revDeps rows are nil where the scan erred.
type indexAnswers struct {
	visible, initials *boolmat.Matrix
	deps, revDeps     []*boolmat.Matrix // indexed by item ID
}

// answersOf scans every item of idx under vl through a plan attached for
// idx.
func answersOf(vl *ViewLabel, idx *ItemIndex) indexAnswers {
	s := NewQuerySession()
	defer s.Close()
	s.EnsurePlan(idx)
	a := indexAnswers{
		visible:  s.VisibleRow(vl, idx).Clone(),
		initials: idx.InitialsRow().Clone(),
		deps:     make([]*boolmat.Matrix, idx.Items()+1),
		revDeps:  make([]*boolmat.Matrix, idx.Items()+1),
	}
	for x := 1; x <= idx.Items(); x++ {
		a.deps[x], _ = s.DepsRow(vl, idx, x)
		a.revDeps[x], _ = s.RevDepsRow(vl, idx, x)
	}
	return a
}

// answersDiff describes the first difference between got and want, or
// returns "" when they agree. Exactly the visible items must scan without
// error, so both checks also cover every hidden or unresolved item.
func answersDiff(got, want indexAnswers) string {
	if !got.visible.Equal(want.visible) || !got.initials.Equal(want.initials) || len(got.deps) != len(want.deps) {
		return "visible or initials row differs"
	}
	for x := 1; x < len(want.deps); x++ {
		visible := want.visible.Get(0, x)
		for _, rows := range [2][2]*boolmat.Matrix{{got.deps[x], want.deps[x]}, {got.revDeps[x], want.revDeps[x]}} {
			if (rows[0] != nil) != visible || (rows[1] != nil) != visible {
				return fmt.Sprintf("item %d: visible=%v, but a scan disagrees on erring", x, visible)
			}
			if visible && !rows[0].Equal(rows[1]) {
				return fmt.Sprintf("item %d: deps or revdeps row differs", x)
			}
		}
	}
	return ""
}

func sameAnswers(tb testing.TB, what string, got, want indexAnswers) {
	tb.Helper()
	if d := answersDiff(got, want); d != "" {
		tb.Fatalf("%s: %s", what, d)
	}
}

// TestItemIndexExtendMatchesBuild cuts each fixture run into random epoch
// prefixes and grows one lineage through all of them, except that one cut
// halfway shrinks the prefix and so starts a new lineage: at every cut the
// extended index must hold the same structure as a from-scratch build at the
// same n, keep each side's groups in path order, and give the same answers
// for every item under every variant. The single-item epochs split owners
// over two extensions, so the order's position tie-break is exercised too.
func TestItemIndexExtendMatchesBuild(t *testing.T) {
	for _, f := range indexFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			n := f.lab.Count()
			cuts := randomCuts(rand.New(rand.NewSource(int64(n))), n)
			if len(cuts) < 8 {
				t.Fatalf("only %d cuts over %d items", len(cuts), n)
			}
			half := len(cuts) / 2
			cuts = slices.Insert(cuts, half, cuts[half-1]/2)
			var ext *ItemIndex
			split := 0
			for e, cut := range cuts {
				epoch := uint64(e + 1)
				prev := ext
				ext = ext.Extend(epoch, cut, f.lab.Label)
				if prev != nil && (ext.b != prev.b) != (cut < prev.Items()) {
					t.Fatalf("epoch %d: extending %d items to %d joined the lineage %v, want %v", epoch, prev.Items(), cut, ext.b == prev.b, cut >= prev.Items())
				}
				scratch := BuildItemIndex(epoch, cut, f.lab.Label)
				sameStructure(t, ext, scratch)
				for _, vl := range f.vls {
					sameAnswers(t, vl.Variant().String(), answersOf(vl, ext), answersOf(vl, scratch))
				}
				split = max(split, splitOwners(ext))
			}
			if split == 0 {
				t.Fatal("no owner spans two extensions, so the order's tie-break is not exercised")
			}
			t.Logf("%d cuts over %d items, %d visible at the last, up to %d owners split", len(cuts), n, answersOf(f.vls[0], ext).visible.CountTrue(), split)
		})
	}
}

// TestItemIndexLineage pins the lineage rules: a published index keeps its
// answers while the lineage grows past it, also under concurrent readers;
// Extend on a non-tip index or with a smaller n starts a new lineage, and
// leaves the tip's own next extension correct.
func TestItemIndexLineage(t *testing.T) {
	f := indexFixtures(t)[0]
	vl := f.vls[len(f.vls)-1]
	n := f.lab.Count()
	k0, k1, k2 := n/4, n/2, 3*n/4

	old := BuildItemIndex(1, k0, f.lab.Label)
	want := answersOf(vl, old)

	// Readers query the epoch-1 index until the builder has extended it
	// twice.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if d := answersDiff(answersOf(vl, old), want); d != "" {
					t.Errorf("reader during extension: %s", d)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	mid := old.Extend(2, k1, f.lab.Label)
	tip := mid.Extend(3, k2, f.lab.Label)
	close(done)
	wg.Wait()
	sameAnswers(t, "epoch-1 index after two extensions", answersOf(vl, old), want)
	sameStructure(t, tip, BuildItemIndex(3, k2, f.lab.Label))

	// A non-tip receiver and a smaller n both build from empty.
	for _, c := range []struct {
		name  string
		from  *ItemIndex
		epoch uint64
		n     int
	}{
		{"non-tip", mid, 4, n},
		{"smaller n", tip, 5, k1},
	} {
		fork := c.from.Extend(c.epoch, c.n, f.lab.Label)
		if fork.b == tip.b {
			t.Fatalf("%s: Extend joined the tip's lineage", c.name)
		}
		sameStructure(t, fork, BuildItemIndex(c.epoch, c.n, f.lab.Label))
		sameAnswers(t, c.name, answersOf(vl, fork), answersOf(vl, BuildItemIndex(c.epoch, c.n, f.lab.Label)))
	}

	// The forks left the lineage alone: its tip still extends in place.
	next := tip.Extend(6, n, f.lab.Label)
	if next.b != tip.b {
		t.Fatal("the tip's next extension started a new lineage")
	}
	scratch := BuildItemIndex(6, n, f.lab.Label)
	sameStructure(t, next, scratch)
	sameAnswers(t, "tip after forks", answersOf(vl, next), answersOf(vl, scratch))
	sameAnswers(t, "epoch-1 index after forks", answersOf(vl, old), want)
}

// FuzzItemIndexExtend grows one index lineage over a fixed run, each input
// byte choosing the next epoch's cut. The first byte picks the run: odd is
// the paper example, whose items connect out- and in-ports of different
// indices, so a decoder that confuses the two sides fails here; even (or no
// input) is BioAID, whose items use one index on both sides. Every later
// byte is the cut: the byte modulo 24 items past the previous cut (0 is an
// epoch that produced nothing), and a byte of 0xF0 or more restarts at a
// smaller prefix. At every cut the extended index must match a from-scratch
// build, structurally and in the scans of the items at the cut boundary,
// and its point answers among those items (plus IDs 0 and cut+1, which it
// holds no label for) must equal the label decoder's for every variant.
// Each side must keep its groups in path order; the seed of one-item epochs
// splits owners over two extensions, whose equal paths the position
// tie-break orders.
func FuzzItemIndexExtend(f *testing.F) {
	fixtures := []indexFixture{
		newIndexFixture(f, "bioaid", workloads.BioAID(), 160, 21),
		newIndexFixture(f, "paper", workloads.PaperExample(), 160, 22),
	}
	f.Add([]byte{0, 1, 1, 1, 23, 0, 5})
	f.Add([]byte{0, 200, 0xF3, 7, 1})
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 1, 23, 0xF8, 9, 2, 17})
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, cuts []byte) {
		fx := fixtures[0]
		if len(cuts) > 0 {
			fx = fixtures[cuts[0]%2]
			cuts = cuts[1:]
		}
		vl := fx.vls[len(fx.vls)-1]
		n := fx.lab.Count()
		if len(cuts) > 64 {
			cuts = cuts[:64]
		}
		var ext *ItemIndex
		cut := 0
		for e, c := range cuts {
			if c >= 0xF0 {
				cut = cut * int(c-0xF0) / 16
			} else {
				cut = min(cut+int(c)%24, n)
			}
			epoch := uint64(e + 1)
			ext = ext.Extend(epoch, cut, fx.lab.Label)
			scratch := BuildItemIndex(epoch, cut, fx.lab.Label)
			sameStructure(t, ext, scratch)
			s, want := NewQuerySession(), NewQuerySession()
			s.EnsurePlan(ext)
			want.EnsurePlan(scratch)
			if !s.VisibleRow(vl, ext).Equal(want.VisibleRow(vl, scratch)) {
				t.Fatalf("cut %d: visible rows differ", cut)
			}
			for x := max(cut-3, 1); x <= cut; x++ {
				got, gerr := s.DepsRow(vl, ext, x)
				exp, werr := want.DepsRow(vl, scratch, x)
				if (gerr == nil) != (werr == nil) || (gerr == nil && !got.Equal(exp)) {
					t.Fatalf("cut %d: deps(%d) differs", cut, x)
				}
				got, gerr = s.RevDepsRow(vl, ext, x)
				exp, werr = want.RevDepsRow(vl, scratch, x)
				if (gerr == nil) != (werr == nil) || (gerr == nil && !got.Equal(exp)) {
					t.Fatalf("cut %d: revdeps(%d) differs", cut, x)
				}
			}
			ids := []int{0, cut + 1}
			for x := max(cut-3, 1); x <= cut; x++ {
				ids = append(ids, x)
			}
			lq := NewQuerySession()
			for _, pvl := range fx.vls {
				for _, a := range ids {
					for _, b := range ids {
						got, gerr := s.DependsOnIndexed(pvl, ext, a, b)
						var exp bool
						werr := faults.ErrUnknownItem
						if a >= 1 && a <= cut && b >= 1 && b <= cut {
							la, _ := fx.lab.Label(a)
							lb, _ := fx.lab.Label(b)
							exp, werr = lq.DependsOn(pvl, la, lb)
						}
						if got != exp || pointErrClass(gerr) != pointErrClass(werr) {
							t.Fatalf("cut %d: indexed point (%d, %d) = (%v, %v), labels (%v, %v)", cut, a, b, got, gerr, exp, werr)
						}
					}
				}
			}
			lq.Close()
			s.Close()
			want.Close()
		}
	})
}

// pointErrClass reduces a point-query error to its errors.Is class: the
// index and label decoders word unknown items differently.
func pointErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, faults.ErrUnknownItem):
		return "unknown"
	case errors.Is(err, faults.ErrHiddenItem):
		return "hidden"
	default:
		return "error"
	}
}

// BenchmarkItemIndexExtend walks a BioAID run's prefixes in epochs of a few
// items each, restarting from empty at the end of the run, and reports the
// cost per appended item. "extend" grows one lineage, as a live session's
// set batches do; "rebuild" builds every epoch's index from scratch instead.
//
//	go test -run '^$' -bench 'BenchmarkItemIndexExtend' -benchmem ./internal/core
func BenchmarkItemIndexExtend(b *testing.B) {
	_, labeler, _ := planBenchFixture(b)
	n := labeler.Count()
	const step = 8
	for _, mode := range []string{"extend", "rebuild"} {
		b.Run(mode, func(b *testing.B) {
			var idx *ItemIndex
			items := 0
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := 0
				if idx != nil && idx.Items() < n {
					from = idx.Items()
				} else {
					idx = nil
				}
				cut := min(from+step, n)
				items += cut - from
				if mode == "extend" {
					idx = idx.Extend(uint64(i), cut, labeler.Label)
				} else {
					idx = BuildItemIndex(uint64(i), cut, labeler.Label)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(items), "allocs/item")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(items), "B/item")
		})
	}
}
