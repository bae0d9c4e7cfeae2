package service

// End-to-end tests of the fvld service: a real HTTP server (httptest) driven
// through the public repro/fvl/client, checked against the in-process fvl
// surfaces the server wraps. The locks of PR 9's acceptance criteria live
// here: remote answers byte-identical to in-process answers at the same
// epoch, graceful drain + restart without losing acked steps, and 429 +
// Retry-After at the admission bound.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/fvl"
	"repro/fvl/client"
	"repro/internal/core"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/service/wire"
	"repro/internal/workflow"
)

// fixture is one workload wired for a test: the spec, the views the scheme
// serves, and a deterministic run to stream.
type fixture struct {
	spec  *fvl.Spec
	views []*fvl.View
	view  string // primary view for queries
	run   *fvl.Run
	svc   *fvl.Service // in-process service over the same views
}

func paperFixture(t *testing.T, seed int64, size int) *fixture {
	t.Helper()
	spec := fvl.PaperExample()
	sec, err := fvl.SecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	views := []*fvl.View{spec.DefaultView(), sec}
	run, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fvl.Open(context.Background(), spec, views)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{spec: spec, views: views, view: sec.Name(), run: run, svc: svc}
}

// figure10Fixture serves the Figure 10 workload, which is not strictly
// linear-recursive — so this fixture exercises the basic-scheme fallback
// (Theorem 1) across the wire, not just the compact scheme.
func figure10Fixture(t *testing.T, seed int64, size int) *fixture {
	t.Helper()
	spec := fvl.Figure10()
	views := []*fvl.View{spec.DefaultView()}
	run, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fvl.Open(context.Background(), spec, views)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.IsBasic() {
		t.Fatal("Figure 10 must be served by the basic scheme")
	}
	return &fixture{spec: spec, views: views, view: spec.DefaultView().Name(), run: run, svc: svc}
}

// startServer runs a Server behind httptest and returns a client for it.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return srv, ts, client.New(ts.URL)
}

// register uploads a fixture as tenant/scheme and opens a session over it.
func register(t *testing.T, c *client.Client, f *fixture, tenant, scheme, session string, durable bool) (*client.Session, client.SessionStatus) {
	t.Helper()
	ctx := context.Background()
	if err := c.CreateTenant(ctx, tenant); err != nil {
		t.Fatalf("tenant %s: %v", tenant, err)
	}
	if _, err := c.RegisterService(ctx, tenant, scheme, f.svc); err != nil {
		t.Fatalf("scheme %s/%s: %v", tenant, scheme, err)
	}
	sess, st, err := c.OpenSession(ctx, tenant, scheme, session, durable)
	if err != nil {
		t.Fatalf("session %s/%s/%s: %v", tenant, scheme, session, err)
	}
	return sess, st
}

// answerBytes renders a set answer in its wire form — the byte-identical
// comparison between remote and in-process answers happens on exactly the
// bytes the server would send.
func answerBytes(t *testing.T, a fvl.SetAnswer) []byte {
	t.Helper()
	data, err := json.Marshal(setAnswerWire(a))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTwoTenantsEndToEnd is the acceptance lock of the tentpole: one fvld
// process serving two tenants answers a streamed-session set query
// byte-identical to an in-process fvl.Session.Query at the same epoch.
func TestTwoTenantsEndToEnd(t *testing.T) {
	ctx := context.Background()
	_, _, c := startServer(t, Config{})

	fixtures := map[string]*fixture{
		"alpha": paperFixture(t, 11, 60),
		"beta":  figure10Fixture(t, 5, 40),
	}
	for tenant, f := range fixtures {
		remote, _ := register(t, c, f, tenant, "wf", "run1", false)

		// Stream the full derivation into the remote session, and mirror it
		// into an in-process live session over the very same service.
		local, err := f.svc.OpenLive()
		if err != nil {
			t.Fatal(err)
		}
		steps := f.run.StepLog()
		res, err := remote.SendSteps(ctx, steps)
		if err != nil {
			t.Fatalf("%s: streaming %d steps: %v", tenant, len(steps), err)
		}
		if res.Applied != len(steps) || res.Epoch != uint64(len(steps)) {
			t.Fatalf("%s: ack %+v, want %d steps applied", tenant, res, len(steps))
		}
		for _, req := range steps {
			if _, err := local.Apply(req.Instance, req.Production); err != nil {
				t.Fatal(err)
			}
		}

		queries := []string{
			"deps(3)",
			"revdeps(2)",
			"union(deps(3),revdeps(2))",
			"explain(1)",
		}
		for _, text := range queries {
			q, err := fvl.ParseQueryExpr(text)
			if err != nil {
				t.Fatal(err)
			}
			remoteAns, remoteEpoch, err := remote.Query(ctx, f.view, q)
			if err != nil {
				t.Fatalf("%s: remote %s: %v", tenant, text, err)
			}
			localAns, localEpoch, err := local.Query(ctx, f.view, q)
			if err != nil {
				t.Fatalf("%s: local %s: %v", tenant, text, err)
			}
			if remoteEpoch != localEpoch {
				t.Fatalf("%s: %s pinned epoch %d remotely, %d locally", tenant, text, remoteEpoch, localEpoch)
			}
			got, want := answerBytes(t, *remoteAns), answerBytes(t, *localAns)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s at epoch %d:\nremote %s\nlocal  %s", tenant, text, remoteEpoch, got, want)
			}
		}

		// A batch with every answer shape: pair sets, an empty item set and
		// a slot that holds an error. Each remote answer is the in-process
		// one, as a value and byte for byte.
		batch := []fvl.QueryExpr{
			fvl.BetweenViews(f.view, f.views[0].Name()),
			fvl.BetweenViews(f.view, f.views[0].Name()).Project(1),
			fvl.BetweenViews(f.view, f.views[0].Name()).Project(2),
			fvl.DepsOf(1),
			fvl.DepsOf(10_000),
		}
		remoteAnswers, re, err := remote.QueryBatch(ctx, f.view, batch)
		if err != nil {
			t.Fatalf("%s: remote batch: %v", tenant, err)
		}
		localAnswers, le, err := local.QueryBatch(ctx, f.view, batch)
		if err != nil {
			t.Fatalf("%s: local batch: %v", tenant, err)
		}
		if re != le {
			t.Fatalf("%s: batch pinned epoch %d remotely, %d locally", tenant, re, le)
		}
		if len(localAnswers[0].Pairs) == 0 || localAnswers[3].Items != nil || localAnswers[3].Err != nil ||
			!errors.Is(localAnswers[4].Err, fvl.ErrUnknownItem) {
			t.Fatalf("%s: the batch lacks a shape: between %d pairs, deps(1) %v (%v), deps(10000) err %v",
				tenant, len(localAnswers[0].Pairs), localAnswers[3].Items, localAnswers[3].Err, localAnswers[4].Err)
		}
		for i := range batch {
			got, want := remoteAnswers[i], localAnswers[i]
			if got.Err != nil && want.Err != nil && got.Err.Error() == want.Err.Error() &&
				errors.Is(got.Err, fvl.ErrUnknownItem) == errors.Is(want.Err, fvl.ErrUnknownItem) {
				got.Err, want.Err = nil, nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: remote answer %+v, local %+v", tenant, batch[i], got, want)
			}
			if gb, wb := answerBytes(t, remoteAnswers[i]), answerBytes(t, localAnswers[i]); !bytes.Equal(gb, wb) {
				t.Errorf("%s: %s on the wire:\nremote %s\nlocal  %s", tenant, batch[i], gb, wb)
			}
		}

		// Point queries agree too, pinned to the same epoch.
		itemQueries := []fvl.ItemQuery{{From: 1, To: 3}, {From: 2, To: 1}, {From: 1, To: 999}}
		remoteRes, re, err := remote.DependsOnBatch(ctx, f.view, itemQueries)
		if err != nil {
			t.Fatal(err)
		}
		localRes, le, err := local.DependsOnBatch(ctx, f.view, itemQueries)
		if err != nil {
			t.Fatal(err)
		}
		if re != le {
			t.Fatalf("%s: depends pinned epoch %d remotely, %d locally", tenant, re, le)
		}
		for i := range remoteRes {
			if remoteRes[i].DependsOn != localRes[i].DependsOn {
				t.Errorf("%s: depends[%d] = %v remotely, %v locally", tenant, i, remoteRes[i].DependsOn, localRes[i].DependsOn)
			}
			if (remoteRes[i].Err == nil) != (localRes[i].Err == nil) {
				t.Errorf("%s: depends[%d] err = %v remotely, %v locally", tenant, i, remoteRes[i].Err, localRes[i].Err)
			}
			if localRes[i].Err != nil && !errors.Is(remoteRes[i].Err, fvl.ErrUnknownItem) {
				t.Errorf("%s: depends[%d] remote error %v does not classify as ErrUnknownItem", tenant, i, remoteRes[i].Err)
			}
		}
	}

	// The tenants stayed isolated: each serves exactly its own scheme.
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("tenants = %v, want 2", tenants)
	}
}

// TestErrorTaxonomyCrossesTheWire: a remote failure classifies under the
// same errors.Is sentinels as a local one.
func TestErrorTaxonomyCrossesTheWire(t *testing.T) {
	ctx := context.Background()
	_, _, c := startServer(t, Config{})
	f := figure10Fixture(t, 3, 30)
	remote, _ := register(t, c, f, "t", "wf", "s", false)

	if _, err := remote.SendSteps(ctx, f.run.StepLog()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := remote.Query(ctx, "no-such-view", fvl.DepsOf(1)); !errors.Is(err, fvl.ErrUnknownView) {
		t.Fatalf("unknown view error %v does not classify as ErrUnknownView", err)
	}
	if _, _, err := remote.Query(ctx, f.view, fvl.DepsOf(10_000)); !errors.Is(err, fvl.ErrUnknownItem) {
		t.Fatalf("unknown item error %v does not classify as ErrUnknownItem", err)
	}
}

// doublingSnapshot is a snapshot with no views of the grammar
// C_{i+1} -> [C_i, C_i] nested 40 levels deep over a one-port atomic C_0:
// its start module declares 2^40 input and output ports.
func doublingSnapshot(t *testing.T) []byte {
	t.Helper()
	const depth = 40
	var modules, prods []string
	for i := 0; i <= depth; i++ {
		modules = append(modules, fmt.Sprintf(`{"name":"C%d","in":%d,"out":%d}`, i, 1<<i, 1<<i))
		if i > 0 {
			prods = append(prods, fmt.Sprintf(`{"lhs":"C%d","nodes":["C%d","C%d"]}`, i, i-1, i-1))
		}
	}
	doc := fmt.Sprintf(`{"start":"C%d","modules":[%s],"productions":[%s],"dependencies":{"C0":["1"]}}`,
		depth, strings.Join(modules, ","), strings.Join(prods, ","))
	spec := &workflow.Specification{}
	if err := spec.UnmarshalJSON([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, scheme, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSchemeUploadRefusesUnboundedStartModule: a scheme whose start module
// declares more ports than the upload's load budget can label is refused as
// a corrupt snapshot (400), quickly, before any session could label it.
func TestSchemeUploadRefusesUnboundedStartModule(t *testing.T) {
	srv, _, c := startServer(t, Config{})
	if err := c.CreateTenant(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	req := httptest.NewRequest(http.MethodPut, wire.SchemePath("t", "doubling"), bytes.NewReader(doublingSnapshot(t)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if took := time.Since(began); took > time.Second {
		t.Fatalf("refusal took %v", took)
	}
	var werr wire.Error
	if err := json.NewDecoder(rec.Body).Decode(&werr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || werr.Kind != "corrupt-snapshot" {
		t.Fatalf("upload answered %d %+v, want 400 corrupt-snapshot", rec.Code, werr)
	}
}

// journalOf frames steps as a step-stream body.
func journalOf(t *testing.T, steps []fvl.StepRequest) []byte {
	t.Helper()
	reqs := make([]live.StepRequest, len(steps))
	for i, st := range steps {
		reqs[i] = live.StepRequest{Instance: st.Instance, Prod: st.Production}
	}
	body, err := live.EncodeJournal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serveSteps posts a raw step-stream body through the server's handler
// under ctx and returns the status and the decoded ack.
func serveSteps(t *testing.T, ctx context.Context, srv *Server, body []byte) (int, wire.StepsResult) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, wire.StepsPath("t", "wf", "s"), bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var ack wire.StepsResult
	if err := json.NewDecoder(rec.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return rec.Code, ack
}

// TestStepStreamUntrustedInput: the step-ingestion surface is the journal
// decoder — malformed bodies are refused with the journal taxonomy, and a
// stream that fails mid-way, on a rejected step or on a torn body, still
// acks its applied prefix truthfully. A canceled request is reported as
// canceled, not as a rejected step.
func TestStepStreamUntrustedInput(t *testing.T) {
	ctx := context.Background()
	srv, _, c := startServer(t, Config{})
	f := figure10Fixture(t, 3, 30)
	remote, _ := register(t, c, f, "t", "wf", "s", false)
	steps := f.run.StepLog()
	if len(steps) < 8 {
		t.Fatalf("fixture run has %d steps, the test needs 8", len(steps))
	}

	// Garbage body: rejected by the header check, nothing applied.
	code, ack := serveSteps(t, ctx, srv, []byte("not a journal at all"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage stream: status %d, want 400", code)
	}
	if ack.Error == nil || !errors.Is(ack.Error.Err(), fvl.ErrCorruptJournal) {
		t.Fatalf("garbage stream error %+v does not classify as ErrCorruptJournal", ack.Error)
	}
	if ack.Applied != 0 || ack.Epoch != 0 {
		t.Fatalf("ack after garbage stream = %+v, want applied=0 epoch=0", ack)
	}

	// A well-formed journal whose steps stop applying: the valid prefix is
	// acked, the failing step reports ErrInvalidStep, and the session
	// remains usable at the acked epoch.
	bad := append(append([]fvl.StepRequest{}, steps[:2]...), fvl.StepRequest{Instance: 9999, Production: 1})
	res, err := remote.SendSteps(ctx, bad)
	if !errors.Is(err, fvl.ErrInvalidStep) {
		t.Fatalf("invalid step error %v does not classify as ErrInvalidStep", err)
	}
	if res.Applied != 2 || res.Epoch != 2 {
		t.Fatalf("ack after failing stream = %+v, want applied=2 epoch=2", res)
	}
	st, err := remote.Status(ctx)
	if err != nil || st.Epoch != 2 {
		t.Fatalf("session after failing stream: %+v, %v", st, err)
	}

	// A body torn inside its fourth record: the three whole records are
	// applied and acked, and the tear reports ErrCorruptJournal.
	torn := journalOf(t, steps[2:6])
	code, ack = serveSteps(t, ctx, srv, torn[:len(torn)-1])
	if code != http.StatusBadRequest {
		t.Fatalf("torn stream: status %d, want 400", code)
	}
	if ack.Error == nil || !errors.Is(ack.Error.Err(), fvl.ErrCorruptJournal) {
		t.Fatalf("torn stream error %+v does not classify as ErrCorruptJournal", ack.Error)
	}
	if ack.Applied != 3 || ack.Epoch != 5 {
		t.Fatalf("ack after torn stream = %+v, want applied=3 epoch=5", ack)
	}

	// A canceled request applies nothing and is not branded a rejected step.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, ack = serveSteps(t, canceled, srv, journalOf(t, steps[5:7]))
	if ack.Error == nil || !errors.Is(ack.Error.Err(), fvl.ErrCanceled) || errors.Is(ack.Error.Err(), fvl.ErrInvalidStep) {
		t.Fatalf("canceled stream error %+v, want ErrCanceled and not ErrInvalidStep", ack.Error)
	}
	if ack.Applied != 0 || ack.Epoch != 5 {
		t.Fatalf("ack after canceled stream = %+v, want applied=0 epoch=5", ack)
	}
	// Canceled with the body cut inside the journal header: the failed
	// header read is the client leaving, not a corrupt journal.
	_, ack = serveSteps(t, canceled, srv, journalOf(t, steps[5:7])[:3])
	if ack.Error == nil || !errors.Is(ack.Error.Err(), fvl.ErrCanceled) || errors.Is(ack.Error.Err(), fvl.ErrCorruptJournal) {
		t.Fatalf("canceled stream torn in its header: error %+v, want ErrCanceled and not ErrCorruptJournal", ack.Error)
	}
	if ack.Applied != 0 || ack.Epoch != 5 {
		t.Fatalf("ack after canceled header = %+v, want applied=0 epoch=5", ack)
	}

	// The session is usable at the acked epoch: the rest of the run applies.
	if res, err := remote.SendSteps(ctx, steps[5:]); err != nil || res.Epoch != uint64(len(steps)) {
		t.Fatalf("finishing the run: %+v, %v", res, err)
	}
}

// waitEpoch polls the session's status on its own connection until it
// reports at least the epoch, or fails the test after a deadline.
func waitEpoch(t *testing.T, remote *client.Session, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := remote.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch >= epoch {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session still at epoch %d while the stream holds epoch %d", st.Epoch, epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStepStreamAppliesWhatHasArrived: a client streams steps over a
// request body it keeps open. Each step is applied and published as soon as
// its record arrives, so a second connection sees its epoch while the
// stream is still open, and the stream's ack, once the client ends it,
// counts every step.
func TestStepStreamAppliesWhatHasArrived(t *testing.T) {
	ctx := context.Background()
	_, ts, c := startServer(t, Config{})
	f := paperFixture(t, 5, 60)
	remote, _ := register(t, c, f, "t", "wf", "s", false)
	steps := f.run.StepLog()[:2]
	first := len(journalOf(t, steps[:1])) // the header and the first record
	body := journalOf(t, steps)

	pr, pw := io.Pipe()
	defer pw.Close()
	// send writes one chunk of the body; the write returns once the server
	// has read it, or fails when the deferred Close runs.
	send := func(chunk []byte) {
		go func() { _, _ = pw.Write(chunk) }()
	}
	type ack struct {
		code int
		res  wire.StepsResult
		err  error
	}
	acked := make(chan ack, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+wire.StepsPath("t", "wf", "s"), pr)
		if err != nil {
			acked <- ack{err: err}
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			acked <- ack{err: err}
			return
		}
		defer resp.Body.Close()
		var a ack
		a.code = resp.StatusCode
		a.err = json.NewDecoder(resp.Body).Decode(&a.res)
		acked <- a
	}()

	send(body[:first])
	waitEpoch(t, remote, 1)
	send(body[first:])
	waitEpoch(t, remote, 2)
	pw.Close()
	select {
	case a := <-acked:
		if a.err != nil || a.code != http.StatusOK || a.res.Applied != 2 || a.res.Epoch != 2 {
			t.Fatalf("ack of the closed stream: status %d, %+v, %v; want 200 with applied=2 epoch=2", a.code, a.res, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no ack after the client closed the stream")
	}
}

// TestDrainReturnsAtItsDeadline: a client holding a step stream open keeps
// the stream's write in flight, so a drain cannot finish; Drain still
// returns at its context's deadline with the context's error, the server
// stays draining, and closing the stream afterwards acks what it carried.
func TestDrainReturnsAtItsDeadline(t *testing.T) {
	srv, ts, c := startServer(t, Config{})
	f := paperFixture(t, 5, 60)
	remote, _ := register(t, c, f, "t", "wf", "s", false)
	steps := f.run.StepLog()[:1]
	body := journalOf(t, steps)

	pr, pw := io.Pipe()
	defer pw.Close()
	go func() { _, _ = pw.Write(body) }()
	acked := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+wire.StepsPath("t", "wf", "s"), pr)
		if err != nil {
			acked <- 0
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			acked <- 0
			return
		}
		resp.Body.Close()
		acked <- resp.StatusCode
	}()
	waitEpoch(t, remote, 1)

	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := srv.Drain(ctx)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > deadline+2*time.Second {
		t.Fatalf("Drain with a step stream held open: %v after %v, want %v at its %v deadline", err, took, context.DeadlineExceeded, deadline)
	}
	if !srv.Draining() {
		t.Fatal("server left draining mode after a timed-out drain")
	}
	pw.Close()
	select {
	case code := <-acked:
		if code != http.StatusOK {
			t.Fatalf("ack of the held stream: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no ack after the client closed the stream")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain once the stream closed: %v", err)
	}
}

// TestAdmissionControl429: when a tenant's in-flight bound is exceeded the
// server answers 429 with Retry-After, and the refusal classifies as
// client.ErrThrottled; the other tenant is unaffected.
func TestAdmissionControl429(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := startServer(t, Config{MaxInflightQueries: 2, MaxInflightStreams: 1})
	f := figure10Fixture(t, 3, 30)
	remote, _ := register(t, c, f, "busy", "wf", "s", false)
	calm := figure10Fixture(t, 4, 30)
	calmSess, _ := register(t, c, calm, "calm", "wf", "s", false)
	if _, err := remote.SendSteps(ctx, f.run.StepLog()); err != nil {
		t.Fatal(err)
	}
	if _, err := calmSess.SendSteps(ctx, calm.run.StepLog()); err != nil {
		t.Fatal(err)
	}

	// Occupy the busy tenant's whole query budget directly — deterministic,
	// no timing games — then hit the bound over HTTP.
	busy, ok := srv.lookupTenant("busy")
	if !ok {
		t.Fatal("tenant not registered")
	}
	for i := 0; i < cap(busy.queryTokens); i++ {
		if !acquire(busy.queryTokens) {
			t.Fatal("could not occupy the query budget")
		}
	}
	body, _ := json.Marshal(wire.QueryRequest{View: f.view, Exprs: []string{"deps(1)"}})
	resp, err := http.Post(ts.URL+wire.QueryPath("busy", "wf", "s"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget query: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The typed client surfaces the refusal as ErrThrottled.
	if _, _, err := remote.Query(ctx, f.view, fvl.DepsOf(1)); !errors.Is(err, client.ErrThrottled) {
		t.Fatalf("throttled query error %v does not classify as client.ErrThrottled", err)
	}
	// The calm tenant still answers: admission budgets are per tenant.
	if _, _, err := calmSess.Query(ctx, calm.view, fvl.DepsOf(1)); err != nil {
		t.Fatalf("calm tenant throttled by busy tenant: %v", err)
	}
	for i := 0; i < cap(busy.queryTokens); i++ {
		release(busy.queryTokens)
	}
	if _, _, err := remote.Query(ctx, f.view, fvl.DepsOf(1)); err != nil {
		t.Fatalf("query after budget freed: %v", err)
	}

	// The refusals showed up in the metrics.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `fvld_throttled_total{tenant="busy"} 2`) {
		t.Errorf("metrics missing throttle count for busy tenant:\n%s", metrics)
	}
}

// TestDrainRestartResume is the durability lock: acked steps survive a
// graceful drain and a full server restart, and the resumed session answers
// exactly as before.
func TestDrainRestartResume(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	f := paperFixture(t, 11, 60)
	steps := f.run.StepLog()
	half := len(steps) / 2

	srv, ts, c := startServer(t, Config{DataDir: dataDir})
	remote, st := register(t, c, f, "t", "wf", "s", true)
	if st.Resumed || !st.Durable {
		t.Fatalf("fresh durable session status %+v", st)
	}
	res, err := remote.SendSteps(ctx, steps[:half])
	if err != nil || res.Applied != half {
		t.Fatalf("first half: %+v, %v", res, err)
	}

	// Drain: once in-flight work completed the session stands at the acked
	// epoch, and the drain wrote nothing to its directory. Writes are then
	// refused with a typed error; reads are still served.
	dir := filepath.Join(dataDir, "t", "wf", "sessions", "s")
	before := dirListing(t, dir)
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := remote.Status(ctx); err != nil || st.Epoch != uint64(half) {
		t.Fatalf("status after drain: %+v, %v; want epoch %d", st, err, half)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("drain changed the session directory:\nbefore %v\nafter  %v", before, after)
	}
	if _, err := remote.SendSteps(ctx, steps[half:]); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("write during drain: %v, want ErrDraining", err)
	}
	if !srv.Draining() {
		t.Fatal("server does not report draining")
	}
	if _, _, err := remote.Query(ctx, f.view, fvl.DepsOf(1)); err != nil {
		t.Fatalf("read during drain refused: %v", err)
	}

	// Resume: refused writers retry and succeed.
	if err := c.Resume(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = remote.SendSteps(ctx, steps[half:])
	if err != nil || res.Epoch != uint64(len(steps)) {
		t.Fatalf("second half after resume: %+v, %v", res, err)
	}
	wantAns, wantEpoch, err := remote.Query(ctx, f.view, fvl.RevDepsOf(2))
	if err != nil {
		t.Fatal(err)
	}

	// Full restart: drain, shut the server down, bring a fresh process up
	// over the same data dir. The scheme reloads from its persisted
	// snapshot; the session resumes from its journal at the acked epoch.
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := startServer(t, Config{DataDir: dataDir})
	sess2, st2, err := c2.OpenSession(ctx, "t", "wf", "s", true)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Resumed || st2.Epoch != uint64(len(steps)) {
		t.Fatalf("restarted session status %+v, want resumed at epoch %d", st2, len(steps))
	}
	gotAns, gotEpoch, err := sess2.Query(ctx, f.view, fvl.RevDepsOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotEpoch != wantEpoch {
		t.Fatalf("epoch %d after restart, want %d", gotEpoch, wantEpoch)
	}
	if got, want := answerBytes(t, *gotAns), answerBytes(t, *wantAns); !bytes.Equal(got, want) {
		t.Fatalf("answer after restart:\ngot  %s\nwant %s", got, want)
	}
}

// dirListing maps each file name in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

// TestJournalExportRoundTrip: the journal endpoint exports bytes a local
// fvl.ResumeLive accepts, rebuilding the session at the same epoch.
func TestJournalExportRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, _, c := startServer(t, Config{})
	f := figure10Fixture(t, 9, 30)
	remote, _ := register(t, c, f, "t", "wf", "s", false)
	if _, err := remote.SendSteps(ctx, f.run.StepLog()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := remote.WriteJournal(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	local, err := f.svc.ResumeLive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if local.Epoch() != uint64(len(f.run.StepLog())) {
		t.Fatalf("resumed local session at epoch %d, want %d", local.Epoch(), len(f.run.StepLog()))
	}
}

// TestMetricsEndpoint: the Prometheus text surface carries the advertised
// families with per-tenant and per-session labels.
func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	_, _, c := startServer(t, Config{})
	f := figure10Fixture(t, 3, 30)
	remote, _ := register(t, c, f, "t", "wf", "s", false)
	if _, err := remote.SendSteps(ctx, f.run.StepLog()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := remote.Query(ctx, f.view, fvl.DepsOf(1)); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fvld_queries_total{tenant="t"} 1`,
		`fvld_steps_total{tenant="t"} ` + itoa(len(f.run.StepLog())),
		"fvld_step_latency_seconds_count " + itoa(len(f.run.StepLog())),
		`fvld_session_epoch{tenant="t",scheme="wf",session="s"} ` + itoa(len(f.run.StepLog())),
		`fvld_inflight_queries{tenant="t"} 0`,
		"fvld_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func itoa(n int) string {
	data, _ := json.Marshal(n)
	return string(data)
}
