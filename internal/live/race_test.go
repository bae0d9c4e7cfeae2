package live_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/workloads"
)

// observation is what one reader saw in one batch: the pinned epoch, the
// item count the prefix reported, the queries, their results, and one
// sampled label's encoding.
type observation struct {
	epoch        uint64
	items        int
	queries      []engine.ItemQuery
	results      []engine.Result
	sampledItem  int
	sampledLabel []byte
	sampledBits  int
}

// TestLiveSessionProducersAndReaders is the torn-state test of the epoch
// protocol, meant to run under -race (the CI race job runs the full suite
// with the detector on): N producer goroutines append frontier steps while
// M readers issue DependsOnItemsBatchContext through the engine pool against
// pinned prefixes. Afterwards every recorded answer is checked against the
// step prefix its batch pinned — labels are byte-identical to the batch
// labeling of that prefix (no torn labels), in-prefix answers match the
// final labels (labels are final on assignment), and beyond-prefix IDs
// failed with ErrUnknownItem even though the items existed by the time the
// batch ran.
func TestLiveSessionProducersAndReaders(t *testing.T) {
	const (
		producers = 3
		readers   = 3
		maxEpoch  = 300
		batchSize = 24
	)
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "live-race", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := live.NewSession(scheme)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	codec := scheme.Codec()

	var producing atomic.Int32
	producing.Store(producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer producing.Add(-1)
			rng := rand.New(rand.NewSource(seed))
			for attempts := 0; attempts < 100000; attempts++ {
				if sess.Epoch() >= maxEpoch || sess.Err() != nil {
					return
				}
				frontier := sess.Frontier()
				if len(frontier) == 0 {
					return
				}
				inst := frontier[rng.Intn(len(frontier))]
				prods := sess.Expandable(inst)
				if len(prods) == 0 {
					continue // lost a race: another producer expanded it
				}
				// Apply may fail when another producer expanded the same
				// instance between Expandable and Apply; that rejection
				// leaves the session unchanged and the producer retries.
				sess.Apply(inst, prods[rng.Intn(len(prods))]) //nolint:errcheck
			}
		}(int64(100 + p))
	}

	obs := make([][]observation, readers)
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func(reader int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Keep reading while any producer runs, but always issue a few
			// batches: on a single-P runtime the whole derivation can finish
			// before a reader is first scheduled, and a batch pinned at the
			// final epoch still exercises the prefix-consistency contract.
			for batch := 0; producing.Load() > 0 || batch < 5; batch++ {
				prefix := sess.Current()
				n := prefix.Items()
				if n == 0 {
					continue
				}
				queries := make([]engine.ItemQuery, batchSize)
				for i := range queries {
					// +3 slack: some IDs fall beyond the pinned prefix and
					// must fail with ErrUnknownItem even if a concurrent
					// producer has already created them.
					queries[i] = engine.ItemQuery{From: 1 + rng.Intn(n+3), To: 1 + rng.Intn(n+3)}
				}
				results, err := e.DependsOnItemsBatchContext(context.Background(), vl, prefix, queries)
				if err != nil {
					t.Error(err)
					return
				}
				sampled := 1 + rng.Intn(n)
				d, ok := prefix.Label(sampled)
				if !ok {
					t.Errorf("reader %d: item %d within the prefix had no label", reader, sampled)
					return
				}
				buf, bits := codec.Encode(d)
				obs[reader] = append(obs[reader], observation{
					epoch:        prefix.Epoch(),
					items:        n,
					queries:      queries,
					results:      results,
					sampledItem:  sampled,
					sampledLabel: buf,
					sampledBits:  bits,
				})
			}
		}(m, int64(200+m))
	}
	wg.Wait()
	if err := sess.Err(); err != nil {
		t.Fatalf("session poisoned: %v", err)
	}

	// Rebuild the ground truth from the session's own step sequence:
	// itemsAt[e] is the item count after e steps, and the final batch
	// labeling provides every label (labels are final on assignment, so a
	// label read at any epoch must equal the final one).
	final := sess.Current()
	steps := final.Steps()
	replay := run.New(spec)
	itemsAt := []int{len(replay.Items)}
	for i, req := range steps {
		if _, err := replay.Apply(req.Instance, req.Prod); err != nil {
			t.Fatalf("replaying session step %d: %v", i+1, err)
		}
		itemsAt = append(itemsAt, len(replay.Items))
	}
	batch, err := scheme.LabelRun(replay)
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for reader := range obs {
		for _, o := range obs[reader] {
			if o.epoch > uint64(len(steps)) {
				t.Fatalf("reader %d pinned epoch %d beyond the final %d", reader, o.epoch, len(steps))
			}
			if o.items != itemsAt[o.epoch] {
				t.Fatalf("reader %d: prefix at epoch %d reported %d items, derivation had %d",
					reader, o.epoch, o.items, itemsAt[o.epoch])
			}
			want, ok := batch.Label(o.sampledItem)
			if !ok {
				t.Fatalf("item %d missing from the final labeling", o.sampledItem)
			}
			wantBuf, wantBits := codec.Encode(want)
			if o.sampledBits != wantBits || !bytes.Equal(o.sampledLabel, wantBuf) {
				t.Fatalf("reader %d epoch %d: torn label for item %d", reader, o.epoch, o.sampledItem)
			}
			for qi, q := range o.queries {
				res := o.results[qi]
				if q.From > o.items || q.To > o.items {
					if !errors.Is(res.Err, faults.ErrUnknownItem) {
						t.Fatalf("reader %d epoch %d: query %v beyond the prefix answered %+v",
							reader, o.epoch, q, res)
					}
					continue
				}
				d1, _ := batch.Label(q.From)
				d2, _ := batch.Label(q.To)
				wantAns, wantErr := vl.DependsOn(d1, d2)
				if (res.Err == nil) != (wantErr == nil) {
					t.Fatalf("reader %d epoch %d query %v: err %v, want %v", reader, o.epoch, q, res.Err, wantErr)
				}
				if wantErr == nil && res.DependsOn != wantAns {
					t.Fatalf("reader %d epoch %d query %v: answer %v inconsistent with its prefix",
						reader, o.epoch, q, res.DependsOn)
				}
				checked++
			}
		}
	}
	if final.Epoch() < 10 || checked == 0 {
		t.Fatalf("test exercised too little: final epoch %d, %d checked answers", final.Epoch(), checked)
	}
}
