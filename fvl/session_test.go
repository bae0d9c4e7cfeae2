package fvl_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/fvl"
)

// liveService opens a BioAID service with one grey-box view for the live
// session tests.
func liveService(t *testing.T) (*fvl.Service, string) {
	t.Helper()
	spec := fvl.BioAID()
	v, err := fvl.RandomView(spec, fvl.ViewOptions{
		Name: "grey", Composites: 8, Mode: fvl.GreyBox, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fvl.Open(context.Background(), spec, []*fvl.View{v}, fvl.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return svc, v.Name()
}

// liveWorkload is one service a live-session test runs over.
type liveWorkload struct {
	name string
	svc  *fvl.Service
	view string
}

// liveWorkloads opens the services the live point-batch tests run over:
// BioAID with one grey-box view, and the paper example with its security
// view. BioAID wires every intermediate item's out-port and in-port at the
// same index, so only the paper example tells the two port indices apart.
func liveWorkloads(t *testing.T) []liveWorkload {
	t.Helper()
	svc, view := liveService(t)
	spec := fvl.PaperExample()
	sec, err := fvl.SecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := fvl.Open(context.Background(), spec, []*fvl.View{sec}, fvl.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return []liveWorkload{{"bioaid", svc, view}, {"paper", paper, sec.Name()}}
}

// drive applies random frontier steps until the session reaches the epoch
// cap or the run completes.
func drive(t *testing.T, sess *fvl.Session, maxEpoch uint64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for sess.Epoch() < maxEpoch {
		frontier := sess.Frontier()
		if len(frontier) == 0 {
			return
		}
		inst := frontier[rng.Intn(len(frontier))]
		prods := sess.Expandable(inst)
		if len(prods) == 0 {
			continue
		}
		if _, err := sess.Apply(inst, prods[rng.Intn(len(prods))]); err != nil {
			t.Fatalf("apply(%d): %v", inst, err)
		}
	}
}

func TestOpenLiveAnswersDuringExecution(t *testing.T) {
	svc, viewName := liveService(t)
	sess, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	type midObs struct {
		epoch   uint64
		items   int
		queries []fvl.ItemQuery
		results []fvl.Result
	}
	var observed []midObs
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 40; round++ {
		drive(t, sess, sess.Epoch()+5, int64(round))
		n := sess.Items()
		queries := make([]fvl.ItemQuery, 16)
		for i := range queries {
			// +2 slack probes IDs just beyond the pinned prefix.
			queries[i] = fvl.ItemQuery{From: 1 + rng.Intn(n+2), To: 1 + rng.Intn(n+2)}
		}
		results, epoch, err := sess.DependsOnBatch(ctx, viewName, queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("round %d: %d results for %d queries", round, len(results), len(queries))
		}
		observed = append(observed, midObs{epoch: epoch, items: n, queries: queries, results: results})
	}

	// Labels are final on assignment, so every mid-run answer about items
	// that existed at the pinned epoch must match the final state's answer;
	// the epoch the batch reports is the consistency certificate.
	finalItems := sess.Items()
	checked := 0
	for _, o := range observed {
		if o.epoch > sess.Epoch() {
			t.Fatalf("observed epoch %d beyond final %d", o.epoch, sess.Epoch())
		}
		for i, q := range o.queries {
			res := o.results[i]
			// o.items was read after the queries' prefix was pinned in the
			// same goroutine, so items ≤ o.items existed at the pinned epoch.
			if q.From > finalItems || q.To > finalItems {
				if !errors.Is(res.Err, fvl.ErrUnknownItem) {
					t.Fatalf("query %v beyond the run answered %+v", q, res)
				}
				continue
			}
			if q.From > o.items || q.To > o.items {
				continue // created between pin and observation; either answer class is valid
			}
			want, wantErr := sessionAnswer(t, sess, ctx, viewName, q)
			if (res.Err == nil) != (wantErr == nil) {
				t.Fatalf("query %v at epoch %d: err %v, final err %v", q, o.epoch, res.Err, wantErr)
			}
			if wantErr == nil && res.DependsOn != want {
				t.Fatalf("query %v at epoch %d: %v, final %v", q, o.epoch, res.DependsOn, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mid-run answers were checked")
	}

	// The session's item answers agree with the label-based service path.
	vl, ok := svc.ViewLabel(viewName)
	if !ok {
		t.Fatal("view label missing")
	}
	for id := 1; id <= finalItems; id += 7 {
		l1, _ := sess.Label(id)
		l2, _ := sess.Label(1)
		want, wantErr := vl.DependsOn(l2, l1)
		got, gotErr := sess.DependsOn(ctx, viewName, 1, id)
		if (gotErr == nil) != (wantErr == nil) || (wantErr == nil && got != want) {
			t.Fatalf("item %d: session answer (%v, %v), label answer (%v, %v)", id, got, gotErr, want, wantErr)
		}
	}
}

func sessionAnswer(t *testing.T, sess *fvl.Session, ctx context.Context, viewName string, q fvl.ItemQuery) (bool, error) {
	t.Helper()
	results, _, err := sess.DependsOnBatch(ctx, viewName, []fvl.ItemQuery{q})
	if err != nil {
		t.Fatal(err)
	}
	return results[0].DependsOn, results[0].Err
}

func TestJournalAndResume(t *testing.T) {
	svc, viewName := liveService(t)
	sess, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drive(t, sess, 60, 15)
	if sess.Epoch() == 0 {
		t.Fatal("drive applied no steps")
	}

	// Resume from the exported journal: same epoch, same items, same answers.
	var journal bytes.Buffer
	if err := sess.WriteJournal(&journal); err != nil {
		t.Fatal(err)
	}
	resumed, err := svc.ResumeLive(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Epoch() != sess.Epoch() || resumed.Items() != sess.Items() {
		t.Fatalf("resumed at epoch %d/%d items, want %d/%d",
			resumed.Epoch(), resumed.Items(), sess.Epoch(), sess.Items())
	}
	// Every label matches, and the item one past the epoch resolves in
	// neither session.
	for id := 1; id <= sess.Items()+1; id++ {
		l, ok := sess.Label(id)
		rl, rok := resumed.Label(id)
		if ok != rok || ok != (id <= sess.Items()) {
			t.Fatalf("item %d: original resolves %v, resumed %v", id, ok, rok)
		}
		if ok && l.String() != rl.String() {
			t.Fatalf("item %d: labels diverge:\n  original %s\n  resumed  %s", id, l, rl)
		}
	}

	// The same journal resumes from a file.
	path := filepath.Join(t.TempDir(), "run.fvlj")
	if err := os.WriteFile(path, journal.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	fromFile, err := svc.ResumeLiveFile(path)
	if err != nil {
		t.Fatalf("resume from file: %v", err)
	}
	if fromFile.Epoch() != sess.Epoch() {
		t.Fatalf("file resume at epoch %d, want %d", fromFile.Epoch(), sess.Epoch())
	}
	if _, err := svc.ResumeLiveFile(filepath.Join(t.TempDir(), "missing.fvlj")); err == nil {
		t.Fatal("resume from a missing journal file succeeded")
	}
	queries := []fvl.ItemQuery{{From: 1, To: sess.Items()}, {From: 2, To: 3}}
	a, _, err := sess.DependsOnBatch(ctx, viewName, queries)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := resumed.DependsOnBatch(ctx, viewName, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].DependsOn != b[i].DependsOn || (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("query %d: original %+v, resumed %+v", i, a[i], b[i])
		}
	}

	// The resumed session exports the same journal bytes it was built from.
	var exported bytes.Buffer
	if err := resumed.WriteJournal(&exported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), journal.Bytes()) {
		t.Fatal("exported journal differs from the streamed journal")
	}

	// Mid-run snapshot export: the labelstore artifact written while the run
	// is open restores a service that serves the same answers for the same
	// session labels.
	var snap bytes.Buffer
	if err := sess.Service().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := fvl.OpenSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restoredSess, err := restored.ResumeLive(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := restoredSess.DependsOnBatch(ctx, viewName, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].DependsOn != c[i].DependsOn || (a[i].Err == nil) != (c[i].Err == nil) {
			t.Fatalf("query %d: live %+v, snapshot-restored %+v", i, a[i], c[i])
		}
	}
}

func TestSessionErrorTaxonomy(t *testing.T) {
	svc, viewName := liveService(t)
	sess, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, _, err := sess.DependsOnBatch(ctx, "nope", []fvl.ItemQuery{{From: 1, To: 1}}); !errors.Is(err, fvl.ErrUnknownView) {
		t.Fatalf("unknown view: got %v", err)
	}
	results, _, err := sess.DependsOnBatch(ctx, viewName, []fvl.ItemQuery{{From: 1, To: 10 * 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, fvl.ErrUnknownItem) {
		t.Fatalf("unknown item: got %+v", results[0])
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := sess.DependsOnBatch(canceled, viewName, []fvl.ItemQuery{{From: 1, To: 1}}); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled batch: got %v", err)
	}

	if _, err := svc.ResumeLive(bytes.NewReader([]byte("not a journal"))); !errors.Is(err, fvl.ErrCorruptJournal) {
		t.Fatalf("corrupt journal: got %v", err)
	}

	// A rejected step leaves the session alive and unchanged.
	before := sess.Epoch()
	if _, err := sess.Apply(0, 999); err == nil {
		t.Fatal("bogus production accepted")
	}
	if sess.Err() != nil || sess.Epoch() != before {
		t.Fatalf("rejected step disturbed the session: err %v, epoch %d -> %d", sess.Err(), before, sess.Epoch())
	}
}
