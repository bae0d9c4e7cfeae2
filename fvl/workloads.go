package fvl

import (
	"fmt"
	"math/rand"

	"repro/internal/workloads"
)

// The bundled workloads: the specifications the paper's examples and
// experiments run on, plus deterministic generators for random runs and
// views. They double as ready-made inputs for trying the library.

// PaperExample returns the paper's running example (Figures 1-3): modules S,
// A, B, C with fine-grained dependencies and two linear recursions.
func PaperExample() *Spec { return &Spec{spec: workloads.PaperExample()} }

// BioAID returns the BioAID-like workflow used by the paper's evaluation: a
// realistically sized bioinformatics pipeline with nested recursions.
func BioAID() *Spec { return &Spec{spec: workloads.BioAID()} }

// Figure10 returns the Figure 10 example: a grammar that is linear- but not
// strictly linear-recursive, so only the basic scheme labels it.
func Figure10() *Spec { return &Spec{spec: workloads.Figure10Example()} }

// SyntheticParams controls the synthetic workflow generator of Section 6.5:
// WorkflowSize, ModuleDegree, NestingDepth and RecursionLength.
type SyntheticParams = workloads.SyntheticParams

// DefaultSyntheticParams returns the paper's default synthetic parameters.
func DefaultSyntheticParams() SyntheticParams { return workloads.DefaultSyntheticParams() }

// Synthetic generates the synthetic workflow family of Section 6.5.
func Synthetic(p SyntheticParams) *Spec { return &Spec{spec: workloads.Synthetic(p)} }

// SecurityView returns the grey-box security view of the paper's Examples 7
// and 8 over the running example: C's internals are hidden behind complete
// dependencies.
func SecurityView(s *Spec) (*View, error) {
	v, err := workloads.PaperSecurityView(s.spec)
	if err != nil {
		return nil, err
	}
	return &View{v: v}, nil
}

// AbstractionView returns the white-box abstraction view over the running
// example: detail is hidden, but the perceived dependencies are the true
// induced ones.
func AbstractionView(s *Spec) (*View, error) {
	v, err := workloads.PaperAbstractionView(s.spec)
	if err != nil {
		return nil, err
	}
	return &View{v: v}, nil
}

// RunOptions controls the random derivation of a run.
type RunOptions struct {
	// TargetSize is the number of data items to aim for.
	TargetSize int
	// Seed makes the derivation deterministic.
	Seed int64
	// Partial stops at TargetSize and leaves the frontier unexpanded.
	Partial bool
	// MaxSteps bounds the derivation; 0 means 50*TargetSize+1000.
	MaxSteps int
}

// RandomRun derives a run of the specification by applying a random
// sequence of productions (the simulation strategy of Section 6.1).
func RandomRun(s *Spec, opts RunOptions) (*Run, error) {
	r, err := workloads.RandomRun(s.spec, workloads.RunOptions{
		TargetSize: opts.TargetSize,
		Rand:       rand.New(rand.NewSource(opts.Seed)),
		Partial:    opts.Partial,
		MaxSteps:   opts.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	return &Run{r: r, spec: s}, nil
}

// DependencyMode selects how the perceived dependencies of a random view
// are generated; its String form is the name ParseDependencyMode reads.
type DependencyMode = workloads.DependencyMode

const (
	// WhiteBox uses the true induced dependencies (abstraction views).
	WhiteBox = workloads.WhiteBox
	// BlackBox uses complete dependencies (the coarse-grained model of the
	// DRL baseline).
	BlackBox = workloads.BlackBox
	// GreyBox adds random false dependencies on top of the true ones
	// (security views).
	GreyBox = workloads.GreyBox
)

// ParseDependencyMode maps a mode name back to the mode.
func ParseDependencyMode(s string) (DependencyMode, error) {
	switch s {
	case "white-box":
		return WhiteBox, nil
	case "black-box":
		return BlackBox, nil
	case "grey-box":
		return GreyBox, nil
	default:
		return 0, fmt.Errorf("fvl: unknown dependency mode %q (want white-box, grey-box or black-box)", s)
	}
}

// ViewOptions controls the generation of a random view.
type ViewOptions struct {
	// Name identifies the view.
	Name string
	// Composites is the number of composite modules kept expandable.
	Composites int
	// Mode selects the perceived dependency assignment.
	Mode DependencyMode
	// Seed makes the generation deterministic.
	Seed int64
	// MaxAttempts bounds the rejection sampling for safe grey-box
	// assignments; 0 means 50.
	MaxAttempts int
}

// RandomView builds a random safe view over the specification: the
// expandable set is grown from the start module so the view is always
// proper, and the dependencies are chosen by Mode. A Mode outside WhiteBox,
// BlackBox and GreyBox is an error.
func RandomView(s *Spec, opts ViewOptions) (*View, error) {
	v, err := workloads.RandomView(s.spec, workloads.ViewOptions{
		Name:        opts.Name,
		Composites:  opts.Composites,
		Mode:        opts.Mode,
		Rand:        rand.New(rand.NewSource(opts.Seed)),
		MaxAttempts: opts.MaxAttempts,
	})
	if err != nil {
		return nil, err
	}
	return &View{v: v}, nil
}
