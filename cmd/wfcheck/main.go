// Command wfcheck runs the static analyses of the paper on a workflow
// specification: properness (Definition 5), safety and the full dependency
// assignment λ* (Section 3.1), linear and strict linear recursion
// (Section 3.2), and the production-graph cycle enumeration used by the
// labeling scheme (Section 4.1). It is built entirely on the public fvl
// package.
//
// Usage:
//
//	wfcheck -workload paper
//	wfcheck -workload bioaid -verbose
//	wfcheck -workload synthetic -depth 6 -degree 4 -size 40 -recursion 2
//	wfcheck -load labels.fvl
//	wfcheck -query 'union(deps(7),revdeps(10))'
//	wfcheck -load labels.fvl -query 'between("security","security")'
//
// -query validates a set-query expression (the canonical IR text of
// fvl.ParseQueryExpr) and prints its canonical form and result kind; with
// -load it also compiles the expression against every view the snapshot
// serves and prints the access paths the planner picks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/fvl"
	"repro/fvl/client"
)

func main() {
	workload := flag.String("workload", "paper", "workflow to analyze: paper, bioaid, figure10, synthetic")
	specFile := flag.String("spec", "", "analyze a specification from a JSON file instead of a bundled workload")
	load := flag.String("load", "", "validate a label snapshot (written by wflabel -snapshot) and analyze its specification")
	export := flag.String("export", "", "write the analyzed specification to this JSON file")
	queryText := flag.String("query", "", "validate a set-query expression; with -load, also print the planner's access paths per served view")
	verbose := flag.Bool("verbose", false, "print the full dependency assignment and every production-graph edge")
	depth := flag.Int("depth", 4, "synthetic: nesting depth")
	degree := flag.Int("degree", 4, "synthetic: module degree")
	size := flag.Int("size", 40, "synthetic: workflow size")
	recursion := flag.Int("recursion", 2, "synthetic: recursion length")
	remote := flag.String("remote", "", "analyze a scheme served by an fvld server at this base URL (downloads its snapshot via the wire codec)")
	tenant := flag.String("tenant", "default", "with -remote: the fvld tenant owning the scheme")
	scheme := flag.String("scheme", "", "with -remote: the scheme name to download and analyze")
	flag.Parse()
	if *remote != "" && *load != "" {
		log.Fatal("-remote and -load are mutually exclusive: both select the snapshot to analyze")
	}

	spec, err := selectWorkload(*workload, fvl.SyntheticParams{
		WorkflowSize: *size, ModuleDegree: *degree, NestingDepth: *depth, RecursionLength: *recursion,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *specFile != "" {
		spec, err = fvl.ReadSpecFile(*specFile)
		if err != nil {
			log.Fatal(err)
		}
		*workload = *specFile
	}
	var svc *fvl.Service
	// -remote is -load over the wire: the scheme's snapshot is downloaded
	// through the public client (same FVLSNAP codec, same validation) and
	// analyzed exactly like a local file.
	if *remote != "" {
		if *scheme == "" {
			names, err := client.New(*remote).Schemes(context.Background(), *tenant)
			if err != nil {
				log.Fatalf("listing schemes of tenant %q at %s: %v", *tenant, *remote, err)
			}
			fmt.Printf("tenant %q at %s serves %d scheme(s):\n", *tenant, *remote, len(names))
			for _, info := range names {
				fmt.Printf("  %-32s views %v, sessions %v\n", info.Name, info.Views, info.Sessions)
			}
			log.Fatal("-remote needs -scheme to pick one of the above")
		}
		svc, err = client.New(*remote).OpenService(context.Background(), *tenant, *scheme)
		if err != nil {
			log.Fatalf("downloading scheme %s/%s from %s: %v", *tenant, *scheme, *remote, err)
		}
		spec = svc.Spec()
		*workload = fmt.Sprintf("%s (tenant %q, scheme %q)", *remote, *tenant, *scheme)
		*load = *workload
	}
	if *load != "" {
		if svc == nil {
			svc, err = fvl.OpenSnapshotFile(*load)
			if err != nil {
				log.Fatalf("loading snapshot %s: %v", *load, err)
			}
			spec = svc.Spec()
			*workload = *load
		}
		kind := "compact"
		if svc.IsBasic() {
			kind = "basic (Theorem 1 fallback)"
		}
		fmt.Printf("snapshot:             %s (validated: checksum, specification and views; views relabeled)\n", *load)
		fmt.Printf("scheme kind:          %s\n", kind)
		fmt.Printf("view labels:          %d\n", len(svc.Views()))
		for _, name := range svc.Views() {
			vl, _ := svc.ViewLabel(name)
			fmt.Printf("  %-16s %-16s %7d bytes, expandable %v\n",
				name, vl.Variant().String(), (vl.SizeBits()+7)/8, vl.View().ExpandableModules())
		}
		fmt.Println()
	}
	if *export != "" {
		// Sync-then-rename, so an interrupted export never leaves a truncated
		// JSON file masquerading as the specification.
		if err := fvl.WriteFileAtomic(*export, spec.WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote specification to %s\n", *export)
	}

	if *queryText != "" {
		q, err := fvl.ParseQueryExpr(*queryText)
		if err != nil {
			log.Fatalf("-query: %v", err)
		}
		kind := "items"
		if q.Pairs() {
			kind = "item pairs"
		}
		fmt.Printf("set query:            %s (answers with %s)\n", q, kind)
		if svc != nil {
			// Compile against every served view to show which access paths
			// the planner picks over the snapshot's labels.
			for _, name := range svc.Views() {
				plan, err := svc.ExplainQuery(name, q)
				if err != nil {
					fmt.Printf("  view %-14s %v\n", name+":", err)
					continue
				}
				fmt.Printf("  view %s:\n", name)
				for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
		}
		fmt.Println()
	}

	a := spec.Analyze()

	fmt.Printf("workflow:             %s\n", *workload)
	fmt.Printf("modules:              %d (%d composite, %d atomic)\n",
		a.ModuleCount, a.CompositeCount, a.AtomicCount)
	fmt.Printf("productions:          %d\n", a.ProductionCount)
	fmt.Printf("start module:         %s\n", a.Start)

	if !a.Valid() {
		fmt.Printf("structurally valid:   no (%v)\n", a.ValidErr)
		os.Exit(1)
	}
	fmt.Printf("structurally valid:   yes\n")
	if !a.Proper() {
		fmt.Printf("proper (Def. 5):      no (%v)\n", a.ProperErr)
	} else {
		fmt.Printf("proper (Def. 5):      yes\n")
	}
	fmt.Printf("coarse-grained:       %v\n", a.CoarseGrained)

	fmt.Printf("linear-recursive:     %v\n", a.LinearRecursive)
	fmt.Printf("strictly linear:      %v\n", a.StrictlyLinearRecursive)
	if a.RecursionErr != nil {
		fmt.Printf("recursions:           unavailable (%v)\n", a.RecursionErr)
	} else {
		fmt.Printf("recursions:           %d\n", len(a.Recursions))
		for _, c := range a.Recursions {
			fmt.Printf("  C(%d): modules %v, edges %v\n", c.Index, c.Modules, c.Edges)
		}
	}

	if !a.Safe() {
		fmt.Printf("safe (Def. 13):       no\n  %v\n", a.SafetyErr)
		fmt.Println("\nNo dynamic labeling scheme exists for this specification (Theorem 1).")
		os.Exit(1)
	}
	fmt.Printf("safe (Def. 13):       yes\n")
	fmt.Println("\nA dynamic labeling scheme exists (Theorem 1); compact labels require strict linear recursion (Theorem 8).")

	if *verbose {
		fmt.Println("\nfull dependency assignment λ* (Lemma 1):")
		for _, name := range spec.Modules() {
			if deps, ok := a.FullDeps[name]; ok {
				fmt.Printf("  λ*(%s) = %v\n", name, deps)
			}
		}
		fmt.Println("\nproduction graph edges (k,i):")
		for _, e := range a.GraphEdges {
			fmt.Printf("  %s\n", e)
		}
	}
}

func selectWorkload(name string, params fvl.SyntheticParams) (*fvl.Spec, error) {
	switch name {
	case "paper":
		return fvl.PaperExample(), nil
	case "bioaid":
		return fvl.BioAID(), nil
	case "figure10":
		return fvl.Figure10(), nil
	case "synthetic":
		return fvl.Synthetic(params), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper, bioaid, figure10 or synthetic)", name)
	}
}
