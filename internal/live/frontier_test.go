package live_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/iofault"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// checkFrontier holds a session's frontier to the recorded run's instances:
// Frontier and IsComplete, and Expandable of every frontier ID, of a sample
// of expanded and atomic IDs and of two unknown IDs.
func checkFrontier(t *testing.T, what string, k int, sess *live.Session, r *run.Run, rng *rand.Rand) {
	t.Helper()
	g := r.Spec.Grammar
	var frontier, expanded, atomic []int
	for _, inst := range r.Instances {
		switch {
		case inst.Prod != 0:
			expanded = append(expanded, inst.ID)
		case g.IsComposite(inst.Module):
			frontier = append(frontier, inst.ID)
		default:
			atomic = append(atomic, inst.ID)
		}
	}
	if got := sess.Frontier(); !slices.Equal(got, frontier) {
		t.Fatalf("%s session at epoch %d: frontier %v, run %v", what, k, got, frontier)
	}
	if got := sess.IsComplete(); got != (len(frontier) == 0) {
		t.Fatalf("%s session at epoch %d: IsComplete %v with frontier %v", what, k, got, frontier)
	}
	ids := append([]int{-1, len(r.Instances)}, frontier...)
	for _, pool := range [][]int{expanded, atomic} {
		for i := 0; i < 4 && len(pool) > 0; i++ {
			ids = append(ids, pool[rng.Intn(len(pool))])
		}
	}
	for _, id := range ids {
		var want []int
		if inst, ok := r.Instance(id); ok && inst.Prod == 0 {
			want = g.ProductionsFor(inst.Module)
		}
		if got := sess.Expandable(id); !slices.Equal(got, want) {
			t.Fatalf("%s session at epoch %d: Expandable(%d) = %v, run says %v", what, k, id, got, want)
		}
	}
}

// TestFrontierDifferential: at every epoch, an in-memory session, a session
// resumed from its journal and a durable session closed and recovered all
// answer Frontier, IsComplete and Expandable as the run.Run derived from the
// same steps does.
func TestFrontierDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   *workflow.Specification
		target int
		seed   int64
	}{
		{"paper", workloads.PaperExample(), 150, 7},
		{"bioaid", workloads.BioAID(), 600, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scheme, err := core.NewScheme(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			steps := recordSteps(t, tc.spec, tc.target, tc.seed)
			r := run.New(tc.spec)
			mem, err := live.NewSession(scheme)
			if err != nil {
				t.Fatal(err)
			}
			opts := durable.Options{SegmentSteps: 8, SyncEvery: durable.SyncOnCheckpoint, FS: iofault.New(iofault.KeepNone)}
			ds, err := durable.Create(scheme, "frontier", opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(tc.seed))
			for k := 0; k <= len(steps); k++ {
				if k > 0 {
					req := steps[k-1]
					if _, err := r.Apply(req.Instance, req.Prod); err != nil {
						t.Fatal(err)
					}
					if _, err := mem.Apply(req.Instance, req.Prod); err != nil {
						t.Fatal(err)
					}
					if _, err := ds.Live().Apply(req.Instance, req.Prod); err != nil {
						t.Fatal(err)
					}
					if k%5 == 0 {
						if err := ds.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkFrontier(t, "in-memory", k, mem, r, rng)

				var journal bytes.Buffer
				if err := mem.Current().WriteJournal(&journal); err != nil {
					t.Fatal(err)
				}
				resumed, err := live.Resume(scheme, &journal)
				if err != nil {
					t.Fatalf("resuming at epoch %d: %v", k, err)
				}
				checkFrontier(t, "resumed", k, resumed, r, rng)

				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}
				if ds, err = durable.Recover(scheme, "frontier", opts); err != nil {
					t.Fatalf("recovering at epoch %d: %v", k, err)
				}
				checkFrontier(t, "recovered", k, ds.Live(), r, rng)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
