package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/drl"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workloads"
)

// multiViewSetup prepares the shared ingredients of Figures 21-23: one
// BioAID-like run of the configured size, its FVL labeling, and MaxViews
// random medium-sized views with black-box dependencies (the model DRL
// supports).
type multiViewSetup struct {
	scheme  *core.Scheme
	run     *run.Run
	labeler *core.RunLabeler
	fvlTime time.Duration
	views   []*view.View
}

func newMultiViewSetup(cfg Config) (*multiViewSetup, error) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		return nil, err
	}
	r, labeler, fvlTime, err := labeledBioAIDRun(scheme, cfg.MultiViewRunSize, cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	rng := int64(0)
	var views []*view.View
	for i := 0; i < cfg.MaxViews; i++ {
		v, err := workloads.RandomView(spec, workloads.ViewOptions{
			Name:       fmt.Sprintf("view-%d", i+1),
			Composites: 8, // medium-size views, as in Section 6.4
			Mode:       workloads.BlackBox,
			Rand:       newRand(cfg.Seed + 1000 + rng + int64(i)),
		})
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	return &multiViewSetup{scheme: scheme, run: r, labeler: labeler, fvlTime: fvlTime, views: views}, nil
}

// Fig21 reproduces Figure 21: the total length of the data labels one data
// item carries, as the number of views defined over the workflow grows. FVL
// labels an item once (view-adaptive), so its total stays flat; DRL keeps one
// label per view, so its total grows linearly.
func Fig21(cfg Config) (*Table, error) {
	setup, err := newMultiViewSetup(cfg)
	if err != nil {
		return nil, err
	}
	fvlBits := fvlLabelStats(setup.scheme, setup.labeler, setup.run).avg

	t := &Table{
		Name:    "fig21",
		Title:   fmt.Sprintf("Total data label length per item (bits) vs number of views (%d-item runs)", cfg.MultiViewRunSize),
		Columns: []string{"views", "FVL", "DRL"},
		Notes:   "FVL stays constant; DRL grows linearly with the number of views",
	}
	drlTotal := 0.0
	for i, v := range setup.views {
		labeler, err := drl.LabelRun(v, setup.run)
		if err != nil {
			return nil, err
		}
		drlTotal += drlLabelStats(labeler, setup.run).avg
		t.Rows = append(t.Rows, []string{fmtCount(i + 1), fmtBits(fvlBits), fmtBits(drlTotal)})
	}
	return t, nil
}

// Fig22 reproduces Figure 22: the total data-label construction time as the
// number of views grows. FVL labels the run once; DRL labels the view of the
// run once per view.
func Fig22(cfg Config) (*Table, error) {
	setup, err := newMultiViewSetup(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "fig22",
		Title:   fmt.Sprintf("Total data label construction time (ms) vs number of views (%d-item runs)", cfg.MultiViewRunSize),
		Columns: []string{"views", "FVL (ms)", "DRL (ms)"},
		Notes:   "DRL is cheaper for a single view (it labels the smaller view of the run) but grows linearly; FVL is flat and wins beyond a few views",
	}
	var drlTotal time.Duration
	for i, v := range setup.views {
		start := time.Now()
		if _, err := drl.LabelRun(v, setup.run); err != nil {
			return nil, err
		}
		drlTotal += time.Since(start)
		t.Rows = append(t.Rows, []string{fmtCount(i + 1), fmtMs(setup.fvlTime), fmtMs(drlTotal)})
	}
	return t, nil
}

// Fig23 reproduces Figure 23: the query time of plain FVL, Matrix-Free FVL
// and DRL over three coarse-grained (black-box) views of increasing size.
func Fig23(cfg Config) (*Table, error) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		return nil, err
	}
	r, labeler, _, err := labeledBioAIDRun(scheme, cfg.MultiViewRunSize, cfg.Seed+1200)
	if err != nil {
		return nil, err
	}
	views, err := bioAIDViews(scheme, workloads.BlackBox, cfg.Seed+1300)
	if err != nil {
		return nil, err
	}
	queries := cfg.Queries
	if queries > 20000 {
		queries = 20000
	}

	t := &Table{
		Name:    "fig23",
		Title:   "Query time (µs per query) over coarse-grained views",
		Columns: []string{"view", "FVL", "Matrix-Free FVL", "DRL"},
		Notes:   "plain FVL is a small factor slower than DRL; Matrix-Free FVL closes the gap to roughly DRL's query time",
	}
	for _, name := range []string{"small", "medium", "large"} {
		v := views[name]
		vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
		if err != nil {
			return nil, err
		}
		pairs, err := visibleLabelPairs(labeler, r, v, queries, cfg.Seed+1400)
		if err != nil {
			return nil, err
		}
		plain, err := measureQueries(vl, pairs)
		if err != nil {
			return nil, err
		}
		matrixFree, err := measureQueries(vl.WithMatrixFree(), pairs)
		if err != nil {
			return nil, err
		}

		dLabeler, err := drl.LabelRun(v, r)
		if err != nil {
			return nil, err
		}
		proj, err := run.Project(r, v)
		if err != nil {
			return nil, err
		}
		visible := proj.VisibleItems()
		rng := newRand(cfg.Seed + 1500)
		type drlPair struct{ a, b core.DataLabel }
		drlPairs := make([]drlPair, queries)
		for i := range drlPairs {
			a, _ := dLabeler.Label(visible[rng.Intn(len(visible))])
			b, _ := dLabeler.Label(visible[rng.Intn(len(visible))])
			drlPairs[i] = drlPair{a, b}
		}
		start := time.Now()
		for _, p := range drlPairs {
			if _, err := dLabeler.DependsOn(p.a, p.b); err != nil {
				return nil, err
			}
		}
		drlAvg := time.Since(start) / time.Duration(len(drlPairs))

		t.Rows = append(t.Rows, []string{name, fmtUs(plain), fmtUs(matrixFree), fmtUs(drlAvg)})
	}
	return t, nil
}
