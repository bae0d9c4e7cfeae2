// Command wflabel derives a run of one of the bundled workflows, labels its
// data items with the view-adaptive scheme, and answers reachability queries
// over a chosen view — the end-to-end pipeline of the paper from the command
// line, built entirely on the public fvl package.
//
// Usage:
//
//	wflabel -workload paper -size 100 -view security -query 7,10
//	wflabel -workload paper -size 100 -view security -query 'deps(7)'
//	wflabel -workload paper -view security -query 'union(deps(7),revdeps(10))'
//	wflabel -workload bioaid -size 2000 -view black-box:8 -labels
//	wflabel -workload paper -stats
//	wflabel -workload bioaid -view grey-box:8 -snapshot labels.fvl
//
// -query accepts either a point query ("d1,d2": does d2 depend on d1?) or a
// set-query expression in the canonical IR text — deps(x), revdeps(x),
// between("A","B"), explain(x,...), union/intersect/project — answered by the
// planner over bitset-row scans instead of one point query per candidate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/fvl"
	"repro/fvl/client"
)

func main() {
	workload := flag.String("workload", "paper", "workflow to run: paper, bioaid, figure10, synthetic")
	specFile := flag.String("spec", "", "run a specification from a JSON file instead of a bundled workload")
	size := flag.Int("size", 100, "target run size (number of data items)")
	seed := flag.Int64("seed", 1, "random seed for the derivation")
	viewSpec := flag.String("view", "default", "view to query: default, security, abstraction (paper workload), or white-box:N / grey-box:N / black-box:N for a random view with N expandable composites")
	variantName := flag.String("variant", "query-efficient", "view label variant: space-efficient, materialized, query-efficient")
	query := flag.String("query", "", "a point query \"d1,d2\" (does d2 depend on d1?) or a set-query expression like deps(7) or between(\"security\",\"default\")")
	showLabels := flag.Bool("labels", false, "print every data label")
	stats := flag.Bool("stats", false, "print label length statistics")
	snapshot := flag.String("snapshot", "", "persist the scheme and the computed view label to this file (load it with wfcheck -load or fvl.OpenSnapshot)")
	session := flag.String("session", "", "drive the derivation through a crash-durable session in this directory (resumed if it already holds one); -query is answered by the live session")
	checkpoint := flag.Int("checkpoint", 0, "with -session: checkpoint every N steps (0 checkpoints once, at the end)")
	remote := flag.String("remote", "", "mirror the derivation into an fvld server at this base URL (e.g. http://127.0.0.1:8439) and answer -query remotely")
	tenant := flag.String("tenant", "default", "with -remote: the fvld tenant to use")
	flag.Parse()
	if *remote != "" && *session != "" {
		log.Fatal("-remote and -session are mutually exclusive: the remote session is the durable one")
	}
	ctx := context.Background()

	spec, err := selectWorkload(*workload)
	if err != nil {
		log.Fatal(err)
	}
	if *specFile != "" {
		spec, err = fvl.ReadSpecFile(*specFile)
		if err != nil {
			log.Fatal(err)
		}
	}
	variant, err := fvl.ParseVariant(*variantName)
	if err != nil {
		log.Fatal(err)
	}
	labeler, err := fvl.NewLabeler(spec, fvl.WithVariant(variant))
	if err != nil {
		log.Fatal(err)
	}

	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: *size, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	labels, err := labeler.Label(ctx, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived and labeled a run with %d data items (%d module instances, %d derivation steps)\n",
		r.Size(), len(r.Instances()), r.Steps())

	v, err := selectView(spec, *viewSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	vl, err := labeler.LabelView(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view %q: expandable composites %v, label %d bytes (%s variant)\n",
		v.Name(), v.ExpandableModules(), (vl.SizeBits()+7)/8, vl.Variant())

	if *snapshot != "" {
		// Atomic write: a crash mid-snapshot must not leave a truncated file
		// where a good snapshot may already sit.
		if err := labeler.SnapshotFile(*snapshot); err != nil {
			log.Fatalf("writing snapshot: %v", err)
		}
		fmt.Printf("wrote label snapshot for view %q (%s variant) to %s\n", v.Name(), vl.Variant(), *snapshot)
	}

	// -session replays the derivation through a crash-durable session: every
	// step is journaled in the directory before it becomes visible, and the
	// same invocation resumes a directory an earlier (possibly crashed) run
	// left behind — the steps are deterministic in -seed, so the journal and
	// the script agree.
	var sess *fvl.DurableSession
	if *session != "" {
		svc, err := fvl.Open(ctx, spec, []*fvl.View{v}, fvl.WithVariant(variant))
		if err != nil {
			log.Fatal(err)
		}
		sess, err = svc.ResumeDurable(*session)
		if errors.Is(err, os.ErrNotExist) {
			sess, err = svc.OpenDurable(*session)
		}
		if err != nil {
			log.Fatalf("session %s: %v", *session, err)
		}
		if info := sess.Recovery(); info != nil {
			torn := ""
			if info.TornTruncated {
				torn = ", torn tail truncated"
			}
			fmt.Printf("resumed session %s at epoch %d (checkpoint %d, replayed %d steps%s)\n",
				*session, sess.Epoch(), info.CheckpointStep, info.ReplayedSteps, torn)
		}
		steps := r.StepLog()
		start := int(sess.Epoch())
		if start > len(steps) {
			log.Fatalf("session %s is at epoch %d but the -size %d run has only %d steps; rerun with the original flags",
				*session, start, *size, len(steps))
		}
		for i, req := range steps[start:] {
			if _, err := sess.Apply(req.Instance, req.Production); err != nil {
				log.Fatalf("session step %d: %v (was the session created with different flags?)", start+i+1, err)
			}
			if *checkpoint > 0 && (start+i+1)%*checkpoint == 0 {
				if err := sess.Checkpoint(); err != nil {
					log.Fatalf("checkpoint at step %d: %v", start+i+1, err)
				}
			}
		}
		if err := sess.Checkpoint(); err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		fmt.Printf("session %s: epoch %d, %d items, checkpointed at %d\n",
			*session, sess.Epoch(), sess.Items(), sess.LastCheckpoint())
		defer func() {
			if err := sess.Close(); err != nil {
				log.Fatalf("closing session: %v", err)
			}
		}()
	}

	if *showLabels {
		fmt.Println("\ndata labels:")
		for _, item := range r.Items() {
			l, _ := labels.Label(item.ID)
			visible := ""
			if !vl.Visible(l) {
				visible = "   [hidden in this view]"
			}
			fmt.Printf("  d%-4d %s%s\n", item.ID, l, visible)
		}
	}

	if *stats {
		total, max := 0, 0
		for _, item := range r.Items() {
			bits, _ := labels.SizeBits(item.ID)
			total += bits
			if bits > max {
				max = bits
			}
		}
		fmt.Printf("\nlabel length: avg %.1f bits, max %d bits over %d items\n",
			float64(total)/float64(r.Size()), max, r.Size())
	}

	// -remote mirrors the derivation into an fvld server through the public
	// client — scheme registered from a local snapshot, steps streamed in the
	// journal wire format — and answers -query against the remote session at
	// a pinned epoch.
	if *remote != "" {
		runRemote(ctx, *remote, *tenant, *workload, spec, v, variant, r, *query, *seed)
		return
	}

	if strings.Contains(*query, "(") {
		// A set-query expression: answered by the planner over bitset-row
		// scans. The live session answers at a pinned epoch; otherwise a
		// service serving the selected view answers over the completed run.
		q, err := fvl.ParseQueryExpr(*query)
		if err != nil {
			log.Fatalf("-query: %v", err)
		}
		var a *fvl.SetAnswer
		if sess != nil {
			var epoch uint64
			a, epoch, err = sess.Query(ctx, v.Name(), q)
			if err != nil {
				log.Fatalf("set query failed: %v", err)
			}
			fmt.Printf("\nset query %s under view %q at epoch %d:\n", q, v.Name(), epoch)
		} else {
			svc, err := fvl.Open(ctx, spec, []*fvl.View{v}, fvl.WithVariant(variant))
			if err != nil {
				log.Fatal(err)
			}
			a, err = svc.Query(ctx, v.Name(), labels, q)
			if err != nil {
				log.Fatalf("set query failed: %v", err)
			}
			fmt.Printf("\nset query %s under view %q:\n", q, v.Name())
		}
		if q.Pairs() {
			fmt.Printf("  %d pairs: %v\n", len(a.Pairs), a.Pairs)
		} else {
			fmt.Printf("  %d items: %v\n", len(a.Items), a.Items)
		}
		for _, line := range strings.Split(strings.TrimRight(a.Plan, "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
		return
	}

	if *query != "" {
		parts := strings.Split(*query, ",")
		if len(parts) != 2 {
			log.Fatalf("-query wants two comma-separated data item IDs, got %q", *query)
		}
		d1, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		d2, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil {
			log.Fatalf("-query wants numeric data item IDs, got %q", *query)
		}
		var ans bool
		if sess != nil {
			// The durable session answers over its own recovered labels.
			ans, err = sess.DependsOn(ctx, v.Name(), d1, d2)
			if err != nil {
				log.Fatalf("query failed: %v", err)
			}
		} else {
			l1, ok1 := labels.Label(d1)
			l2, ok2 := labels.Label(d2)
			if !ok1 || !ok2 {
				log.Fatalf("the run has no data item %d or %d (items are numbered 1..%d)", d1, d2, r.Size())
			}
			ans, err = vl.DependsOn(l1, l2)
			if err != nil {
				log.Fatalf("query failed: %v", err)
			}
		}
		fmt.Printf("\ndoes d%d depend on d%d under view %q?  %v\n", d2, d1, v.Name(), ans)

		// Cross-check against the ground-truth projection oracle.
		if proj, err := r.Project(v); err == nil {
			if want, err := proj.DependsOn(d1, d2); err == nil {
				fmt.Printf("(ground-truth graph search agrees: %v)\n", want)
			}
		}
	}
}

// runRemote drives the derivation through an fvld server: the scheme is
// registered once per (workload, view, variant) from a locally computed
// snapshot, the run's step log streams through the session's journal-format
// ingestion, and the query is answered by the server at a pinned epoch.
func runRemote(ctx context.Context, baseURL, tenant, workload string, spec *fvl.Spec, v *fvl.View, variant fvl.Variant, r *fvl.Run, query string, seed int64) {
	c := client.New(baseURL)
	if err := c.CreateTenant(ctx, tenant); err != nil {
		log.Fatalf("remote tenant %q: %v", tenant, err)
	}
	schemeName := fmt.Sprintf("%s-%s-%s", workload, v.Name(), variant)
	if _, err := c.Scheme(ctx, tenant, schemeName); err != nil {
		svc, err := fvl.Open(ctx, spec, []*fvl.View{v}, fvl.WithVariant(variant))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.RegisterService(ctx, tenant, schemeName, svc); err != nil {
			log.Fatalf("registering scheme %q: %v", schemeName, err)
		}
		fmt.Printf("registered scheme %q with %s\n", schemeName, baseURL)
	}
	sessionName := fmt.Sprintf("run-s%d-n%d", seed, r.Size())
	sess, st, err := c.OpenSession(ctx, tenant, schemeName, sessionName, true)
	if err != nil {
		log.Fatalf("remote session %q: %v", sessionName, err)
	}
	steps := r.StepLog()
	start := int(st.Epoch)
	if start > len(steps) {
		log.Fatalf("remote session %q is at epoch %d but this run has only %d steps; rerun with the original flags",
			sessionName, start, len(steps))
	}
	res, err := sess.SendSteps(ctx, steps[start:])
	if err != nil {
		log.Fatalf("streaming steps (%d acked before failure): %v", res.Applied, err)
	}
	if _, err := sess.Checkpoint(ctx); err != nil {
		log.Fatalf("remote checkpoint: %v", err)
	}
	fmt.Printf("remote session %s/%s/%s: epoch %d, %d items\n",
		tenant, schemeName, sessionName, res.Epoch, res.Items)

	switch {
	case strings.Contains(query, "("):
		q, err := fvl.ParseQueryExpr(query)
		if err != nil {
			log.Fatalf("-query: %v", err)
		}
		a, epoch, err := sess.Query(ctx, v.Name(), q)
		if err != nil {
			log.Fatalf("remote set query failed: %v", err)
		}
		fmt.Printf("\nset query %s under view %q at epoch %d (remote):\n", q, v.Name(), epoch)
		if q.Pairs() {
			fmt.Printf("  %d pairs: %v\n", len(a.Pairs), a.Pairs)
		} else {
			fmt.Printf("  %d items: %v\n", len(a.Items), a.Items)
		}
		for _, line := range strings.Split(strings.TrimRight(a.Plan, "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	case query != "":
		parts := strings.Split(query, ",")
		if len(parts) != 2 {
			log.Fatalf("-query wants two comma-separated data item IDs, got %q", query)
		}
		d1, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		d2, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil {
			log.Fatalf("-query wants numeric data item IDs, got %q", query)
		}
		ans, err := sess.DependsOn(ctx, v.Name(), d1, d2)
		if err != nil {
			log.Fatalf("remote query failed: %v", err)
		}
		fmt.Printf("\ndoes d%d depend on d%d under view %q?  %v (remote)\n", d2, d1, v.Name(), ans)
	}
}

func selectWorkload(name string) (*fvl.Spec, error) {
	switch name {
	case "paper":
		return fvl.PaperExample(), nil
	case "bioaid":
		return fvl.BioAID(), nil
	case "figure10":
		return fvl.Figure10(), nil
	case "synthetic":
		return fvl.Synthetic(fvl.DefaultSyntheticParams()), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func selectView(spec *fvl.Spec, name string, seed int64) (*fvl.View, error) {
	switch {
	case name == "default":
		return spec.DefaultView(), nil
	case name == "security":
		return fvl.SecurityView(spec)
	case name == "abstraction":
		return fvl.AbstractionView(spec)
	default:
		parts := strings.SplitN(name, ":", 2)
		mode, err := fvl.ParseDependencyMode(parts[0])
		if err != nil {
			return nil, err
		}
		n := 4
		if len(parts) == 2 {
			n, err = strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("view %q: %w", name, err)
			}
		}
		return fvl.RandomView(spec, fvl.ViewOptions{
			Name: name, Composites: n, Mode: mode, Seed: seed + 1000,
		})
	}
}
