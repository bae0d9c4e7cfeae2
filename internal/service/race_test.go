package service

// The concurrency lock of PR 9 (run under -race in CI): N producers and M
// queriers per tenant hammer one fvld server across two tenants while an
// admin drains and resumes it mid-flight. Every query answer is then
// re-derived in-process at its pinned epoch — the answers must match the
// batch labels of exactly that step prefix, or epoch pinning tore under
// concurrency.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/fvl"
	"repro/fvl/client"
)

// raceSample is one observed answer: the epoch the server pinned and the
// batch results it returned.
type raceSample struct {
	epoch   uint64
	results []fvl.Result
}

func TestConcurrentMultiTenantDrainMidflight(t *testing.T) {
	ctx := context.Background()
	_, _, c := startServer(t, Config{DataDir: t.TempDir()})

	fixtures := map[string]*fixture{
		"alpha": paperFixture(t, 21, 70),
		"beta":  paperFixture(t, 22, 70),
	}
	itemQueries := []fvl.ItemQuery{
		{From: 1, To: 2}, {From: 1, To: 5}, {From: 2, To: 9},
		{From: 3, To: 4}, {From: 4, To: 12}, {From: 7, To: 3},
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	samples := make(map[string][]raceSample)
	producersDone := make(chan struct{})
	var producerWG sync.WaitGroup

	for tenant, f := range fixtures {
		sess, _ := register(t, c, f, tenant, "wf", "run", true)
		steps := f.run.StepLog()

		// One producer per tenant streams the deterministic step log in
		// small chunks, retrying chunks the drain refused — a refused write
		// applies nothing, so whole-chunk retry never double-applies.
		producerWG.Add(1)
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			defer producerWG.Done()
			const chunk = 4
			for at := 0; at < len(steps); {
				end := min(at+chunk, len(steps))
				res, err := sess.SendSteps(ctx, steps[at:end])
				switch {
				case errors.Is(err, client.ErrDraining), errors.Is(err, client.ErrThrottled):
					time.Sleep(2 * time.Millisecond)
					continue
				case err != nil:
					t.Errorf("%s: producer at step %d: %v", tenant, at, err)
					return
				}
				if res.Applied != end-at {
					t.Errorf("%s: chunk [%d,%d) acked %d steps", tenant, at, end, res.Applied)
					return
				}
				at = end
				time.Sleep(time.Millisecond)
			}
		}(tenant)

		// Two queriers per tenant collect epoch-pinned batch answers until
		// the producers finish; throttled requests retry, everything else
		// must succeed.
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(tenant string, sess *client.Session, view string) {
				defer wg.Done()
				for {
					select {
					case <-producersDone:
						return
					default:
					}
					results, epoch, err := sess.DependsOnBatch(ctx, view, itemQueries)
					if errors.Is(err, client.ErrThrottled) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("%s: querier: %v", tenant, err)
						return
					}
					mu.Lock()
					samples[tenant] = append(samples[tenant], raceSample{epoch: epoch, results: results})
					mu.Unlock()
				}
			}(tenant, sess, f.view)
		}
	}

	// The admin drains mid-flight — the drain returns once in-flight work
	// completes — and resumes, after which the refused producers pick their
	// streams back up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		if err := c.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		time.Sleep(10 * time.Millisecond)
		if err := c.Resume(ctx); err != nil {
			t.Errorf("resume: %v", err)
		}
	}()

	producerWG.Wait()
	close(producersDone)
	wg.Wait()

	for tenant, f := range fixtures {
		steps := f.run.StepLog()
		sess, st, err := c.OpenSession(ctx, tenant, "wf", "run", true)
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != uint64(len(steps)) {
			t.Fatalf("%s: final epoch %d, want %d — acked steps were lost", tenant, st.Epoch, len(steps))
		}
		_ = sess

		// Re-derive every distinct sampled epoch in-process: a fresh live
		// session replays exactly that prefix of the deterministic step log
		// and must answer the batch identically.
		byEpoch := make(map[uint64][]raceSample)
		for _, s := range samples[tenant] {
			byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
		}
		if len(byEpoch) == 0 {
			t.Fatalf("%s: queriers collected no samples", tenant)
		}
		for epoch, group := range byEpoch {
			if epoch > uint64(len(steps)) {
				t.Fatalf("%s: sampled epoch %d beyond the %d-step log", tenant, epoch, len(steps))
			}
			replay, err := f.svc.OpenLive()
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range steps[:epoch] {
				if _, err := replay.Apply(req.Instance, req.Production); err != nil {
					t.Fatal(err)
				}
			}
			want, wantEpoch, err := replay.DependsOnBatch(ctx, f.view, itemQueries)
			if err != nil {
				t.Fatal(err)
			}
			if wantEpoch != epoch {
				t.Fatalf("%s: replay pinned epoch %d, want %d", tenant, wantEpoch, epoch)
			}
			for _, s := range group {
				for i := range want {
					if s.results[i].DependsOn != want[i].DependsOn {
						t.Errorf("%s: epoch %d query %d answered %v, in-process replay says %v",
							tenant, epoch, i, s.results[i].DependsOn, want[i].DependsOn)
					}
					if (s.results[i].Err == nil) != (want[i].Err == nil) {
						t.Errorf("%s: epoch %d query %d err %v, in-process replay err %v",
							tenant, epoch, i, s.results[i].Err, want[i].Err)
					}
				}
			}
		}
		t.Logf("%s: verified %d samples across %d distinct epochs", tenant, len(samples[tenant]), len(byEpoch))
	}
}

// TestConcurrentDurableCreate: concurrent PUTs of one new durable session
// name all succeed and address one session. Exactly one of them creates the
// directory; the others re-attach to it, and a restart resumes it.
func TestConcurrentDurableCreate(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	srv, ts, c := startServer(t, Config{DataDir: dataDir})
	f := paperFixture(t, 5, 40)
	register(t, c, f, "t", "wf", "first", false)

	const puts = 8
	var wg sync.WaitGroup
	sessions := make([]*client.Session, puts)
	statuses := make([]client.SessionStatus, puts)
	errs := make([]error, puts)
	for i := range puts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], statuses[i], errs[i] = c.OpenSession(ctx, "t", "wf", "s", true)
		}(i)
	}
	wg.Wait()
	created := 0
	for i, st := range statuses {
		if errs[i] != nil {
			t.Fatalf("PUT %d: %v", i, errs[i])
		}
		if st.Tenant != "t" || st.Scheme != "wf" || st.Session != "s" || !st.Durable || st.Epoch != 0 {
			t.Fatalf("PUT %d reported %+v", i, st)
		}
		if !st.Resumed {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d of %d PUTs created the session, want 1", created, puts)
	}

	// Every handle writes to and reads from the one registered session.
	steps := f.run.StepLog()
	for i, sess := range sessions {
		if _, err := sess.SendSteps(ctx, steps[i:i+1]); err != nil {
			t.Fatalf("step %d through PUT %d's handle: %v", i+1, i, err)
		}
	}
	for i, sess := range sessions {
		if st, err := sess.Status(ctx); err != nil || st.Epoch != puts {
			t.Fatalf("status through PUT %d's handle: %+v, %v; want epoch %d", i, st, err, puts)
		}
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, c2 := startServer(t, Config{DataDir: dataDir})
	if _, st, err := c2.OpenSession(ctx, "t", "wf", "s", true); err != nil || !st.Resumed || st.Epoch != puts {
		t.Fatalf("restarted session: %+v, %v; want resumed at epoch %d", st, err, puts)
	}
}
