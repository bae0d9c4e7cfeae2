package workloads

import (
	"fmt"

	"repro/internal/run"
	"repro/internal/workflow"
)

// DeepRun derives a run that exercises the full nesting structure of the
// specification before growing to the target size: as long as some production
// would introduce a composite module that has not yet appeared in the run,
// one such production is applied (descending through nested recursion levels
// and covering every composite of the grammar); afterwards the run grows to
// the target size exactly like RandomRun. The synthetic experiments of
// Section 6.5 use this derivation so that the nesting-depth parameter is
// actually reflected in the runs being labeled.
func DeepRun(spec *workflow.Specification, opts RunOptions) (*run.Run, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("workloads: RunOptions.Rand must not be nil")
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 50*opts.TargetSize + 1000
	}
	growing, terminating := classifyProductions(spec.Grammar)

	r := run.New(spec)
	seen := map[string]bool{spec.Grammar.Start: true}
	steps := 0

	// Phase 1: cover every composite module reachable from the start.
	for {
		type candidate struct {
			inst, prod, novel int
		}
		var best *candidate
		for _, instID := range r.Frontier() {
			inst, _ := r.Instance(instID)
			for _, k := range spec.Grammar.ProductionsFor(inst.Module) {
				novel := 0
				for _, node := range spec.Grammar.Productions[k-1].RHS.Nodes {
					if spec.Grammar.IsComposite(node) && !seen[node] {
						novel++
					}
				}
				if novel == 0 {
					continue
				}
				if best == nil || novel > best.novel {
					best = &candidate{inst: instID, prod: k, novel: novel}
				}
			}
		}
		if best == nil {
			break
		}
		if steps >= maxSteps {
			return nil, fmt.Errorf("workloads: coverage phase did not terminate within %d steps", maxSteps)
		}
		step, err := r.Apply(best.inst, best.prod)
		if err != nil {
			return nil, err
		}
		for _, module := range step.Nodes {
			seen[module] = true
		}
		steps++
	}

	// Phase 2: grow to the target size and terminate, as in RandomRun.
	for {
		frontier := r.Frontier()
		if len(frontier) == 0 {
			break
		}
		if opts.Partial && r.Size() >= opts.TargetSize {
			break
		}
		if steps >= maxSteps {
			return nil, fmt.Errorf("workloads: derivation did not terminate within %d steps", maxSteps)
		}
		instID := frontier[opts.Rand.Intn(len(frontier))]
		inst, _ := r.Instance(instID)
		var prod int
		if r.Size() < opts.TargetSize {
			prod = pickProduction(opts.Rand, growing[inst.Module], spec.Grammar.ProductionsFor(inst.Module))
		} else {
			prod = pickProduction(opts.Rand, terminating[inst.Module], spec.Grammar.ProductionsFor(inst.Module))
		}
		if _, err := r.Apply(instID, prod); err != nil {
			return nil, err
		}
		steps++
	}
	return r, nil
}
