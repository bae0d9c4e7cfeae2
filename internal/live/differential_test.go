package live_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// recordSteps derives a random run and returns its step sequence as journal
// requests, in application order.
func recordSteps(t *testing.T, spec *workflow.Specification, target int, seed int64) []live.StepRequest {
	t.Helper()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{
		TargetSize: target,
		Rand:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("deriving random run: %v", err)
	}
	steps := make([]live.StepRequest, len(r.Steps))
	for i, st := range r.Steps {
		steps[i] = live.StepRequest{Instance: st.Instance, Prod: st.Prod}
	}
	return steps
}

// truncatedRun rebuilds the run consisting of the first k recorded steps.
func truncatedRun(t *testing.T, spec *workflow.Specification, steps []live.StepRequest, k int) *run.Run {
	t.Helper()
	r := run.New(spec)
	for i := 0; i < k; i++ {
		if _, err := r.Apply(steps[i].Instance, steps[i].Prod); err != nil {
			t.Fatalf("replaying step %d: %v", i+1, err)
		}
	}
	return r
}

// checkPrefixes is the prefix-differential invariant: after every checked
// prefix of k steps, the live session's published labels are byte-identical
// (under the scheme's codec) to Scheme.LabelRun on the truncated run, and
// reachability answers through the engine's session-aware batch path agree
// with the batch labels under all three view-label variants — plus the
// graph-search oracle on the truncated run's projection.
func checkPrefixes(t *testing.T, scheme *core.Scheme, v *view.View, steps []live.StepRequest) {
	t.Helper()
	sess, err := live.NewSession(scheme)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	e := engine.New(2)

	variants := []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient}
	labels := make([]*core.ViewLabel, len(variants))
	if v != nil {
		for i, variant := range variants {
			vl, err := scheme.LabelView(v, variant)
			if err != nil {
				t.Fatalf("labeling view (variant %v): %v", variant, err)
			}
			labels[i] = vl
		}
	}

	// Every prefix is byte-checked; queries are cross-checked on a stride so
	// the oracle's O(prefix) projection cost stays bounded.
	queryStride := len(steps)/8 + 1
	rng := rand.New(rand.NewSource(99))
	for k := 0; k <= len(steps); k++ {
		if k > 0 {
			epoch, err := sess.Apply(steps[k-1].Instance, steps[k-1].Prod)
			if err != nil {
				t.Fatalf("prefix %d: apply: %v", k, err)
			}
			if epoch != uint64(k) {
				t.Fatalf("prefix %d: apply returned epoch %d", k, epoch)
			}
		}
		prefix := sess.Current()
		if got, want := prefix.Epoch(), uint64(k); got != want {
			t.Fatalf("prefix %d: published epoch %d", k, got)
		}

		trunc := truncatedRun(t, scheme.Spec, steps, k)
		batch, err := scheme.LabelRun(trunc)
		if err != nil {
			t.Fatalf("prefix %d: batch labeling: %v", k, err)
		}
		if prefix.Items() != len(trunc.Items) || prefix.Items() != batch.Count() {
			t.Fatalf("prefix %d: %d live items, %d truncated items, %d batch labels",
				k, prefix.Items(), len(trunc.Items), batch.Count())
		}
		for id := 1; id <= prefix.Items(); id++ {
			liveLabel, ok := prefix.Label(id)
			if !ok {
				t.Fatalf("prefix %d: item %d unlabeled live", k, id)
			}
			batchLabel, ok := batch.Label(id)
			if !ok {
				t.Fatalf("prefix %d: item %d unlabeled by batch", k, id)
			}
			liveBuf, liveBits := codec.Encode(liveLabel)
			batchBuf, batchBits := codec.Encode(batchLabel)
			if liveBits != batchBits || !bytes.Equal(liveBuf, batchBuf) {
				t.Fatalf("prefix %d: item %d label differs: live %x/%d bits, batch %x/%d bits",
					k, id, liveBuf, liveBits, batchBuf, batchBits)
			}
		}
		if _, ok := prefix.Label(prefix.Items() + 1); ok {
			t.Fatalf("prefix %d: item beyond the prefix resolved", k)
		}

		if v == nil || (k%queryStride != 0 && k != len(steps)) {
			continue
		}
		proj, err := run.Project(trunc, v)
		if err != nil {
			t.Fatalf("prefix %d: projecting truncated run: %v", k, err)
		}
		queries := make([]engine.ItemQuery, 24)
		for i := range queries {
			queries[i] = engine.ItemQuery{
				From: 1 + rng.Intn(prefix.Items()),
				To:   1 + rng.Intn(prefix.Items()),
			}
		}
		// One unknown-item query rides along: beyond the prefix must fail
		// per-query with ErrUnknownItem, not poison the batch.
		queries = append(queries, engine.ItemQuery{From: prefix.Items() + 1, To: 1})
		for vi, vl := range labels {
			results, err := e.DependsOnItemsBatchContext(t.Context(), vl, prefix, queries)
			if err != nil {
				t.Fatalf("prefix %d variant %v: batch failed: %v", k, variants[vi], err)
			}
			for qi, q := range queries {
				res := results[qi]
				if q.From > prefix.Items() {
					if !errors.Is(res.Err, faults.ErrUnknownItem) {
						t.Fatalf("prefix %d variant %v: beyond-prefix query got %v", k, variants[vi], res.Err)
					}
					continue
				}
				d1, _ := batch.Label(q.From)
				d2, _ := batch.Label(q.To)
				want, wantErr := vl.DependsOn(d1, d2)
				if (res.Err == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(res.Err, faults.ErrHiddenItem)) {
					t.Fatalf("prefix %d variant %v query %v: live err %v, batch err %v",
						k, variants[vi], q, res.Err, wantErr)
				}
				if wantErr == nil && res.DependsOn != want {
					t.Fatalf("prefix %d variant %v query %v: live %v, batch %v",
						k, variants[vi], q, res.DependsOn, want)
				}
				if wantErr == nil && proj.VisibleItem(q.From) && proj.VisibleItem(q.To) {
					oracle, err := proj.DependsOn(q.From, q.To)
					if err != nil {
						t.Fatalf("prefix %d oracle %v: %v", k, q, err)
					}
					if oracle != res.DependsOn {
						t.Fatalf("prefix %d variant %v query %v: live %v, oracle %v",
							k, variants[vi], q, res.DependsOn, oracle)
					}
				}
			}
		}
	}
}

func TestPrefixDifferentialPaperExample(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefixes(t, scheme, v, recordSteps(t, spec, 120, 7))
}

func TestPrefixDifferentialBioAID(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "live-diff", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPrefixes(t, scheme, v, recordSteps(t, spec, 250, 13))
}

func TestPrefixDifferentialBasicScheme(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewSchemeBasic(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.PaperAbstractionView(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefixes(t, scheme, v, recordSteps(t, spec, 80, 21))
}

// TestResumeRebuildsExactPrefix closes the restartability loop: a session
// journaled step by step through a JournalWriter sink, resumed from those
// bytes, publishes the same epoch, the same item count and byte-identical
// labels.
func TestResumeRebuildsExactPrefix(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := recordSteps(t, spec, 150, 3)

	var journal bytes.Buffer
	jw, err := live.NewJournalWriter(&journal)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := live.NewSession(scheme, live.WithJournalSink(jw))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range steps {
		if _, err := sess.Apply(req.Instance, req.Prod); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := live.Resume(scheme, bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("resuming: %v", err)
	}
	a, b := sess.Current(), resumed.Current()
	if a.Epoch() != b.Epoch() || a.Items() != b.Items() {
		t.Fatalf("resumed session at epoch %d/%d items, original %d/%d",
			b.Epoch(), b.Items(), a.Epoch(), a.Items())
	}
	codec := scheme.Codec()
	for id := 1; id <= a.Items(); id++ {
		la, _ := a.Label(id)
		lb, _ := b.Label(id)
		bufA, bitsA := codec.Encode(la)
		bufB, bitsB := codec.Encode(lb)
		if bitsA != bitsB || !bytes.Equal(bufA, bufB) {
			t.Fatalf("item %d: resumed label differs", id)
		}
	}

	// The exported journal of the resumed session's prefix matches the
	// original journal byte for byte.
	var exported bytes.Buffer
	if err := b.WriteJournal(&exported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), journal.Bytes()) {
		t.Fatalf("exported journal differs from the streamed one")
	}

	// Corrupt journals are rejected, never applied.
	bad := append([]byte(nil), journal.Bytes()...)
	bad[3] ^= 0xff
	if _, err := live.Resume(scheme, bytes.NewReader(bad)); !errors.Is(err, faults.ErrCorruptJournal) {
		t.Fatalf("corrupt journal: want ErrCorruptJournal, got %v", err)
	}
}

// TestRestoreRefusesInapplicableSteps: Restore derives the steps it is
// given, so a sequence with a step that does not apply is refused with a
// *StepError naming that step and wrapping the derivation's error, and a
// sequence that applies serves exactly the items of the run those steps
// derive.
func TestRestoreRefusesInapplicableSteps(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := recordSteps(t, spec, 60, 5)
	bad := append(append([]live.StepRequest(nil), steps[:3]...), steps[1])
	_, err = live.Restore(scheme, bad)
	var serr *live.StepError
	if !errors.As(err, &serr) || serr.Step != 4 || serr.Err == nil {
		t.Fatalf("restoring a repeated step: want a *StepError for step 4, got %v", err)
	}
	r := truncatedRun(t, spec, steps, len(steps))
	sess, err := live.Restore(scheme, steps)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != uint64(len(steps)) || sess.Items() != len(r.Items) {
		t.Fatalf("restored session at epoch %d with %d items, want %d and %d",
			sess.Epoch(), sess.Items(), len(steps), len(r.Items))
	}
}
