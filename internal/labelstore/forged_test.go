package labelstore_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/boolmat"
	"repro/internal/faults"
	"repro/internal/labelstore"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// forgedView is one view entry of a hand-built snapshot payload.
type forgedView struct {
	name    string
	variant byte
	include []string
	deps    workflow.DependencyAssignment
}

// forgePayload encodes a snapshot payload field by field, the way an
// attacker would: a compact-scheme kind byte, the specification's JSON and
// the view entries.
func forgePayload(spec []byte, views ...forgedView) []byte {
	buf := []byte{0}
	buf = binary.AppendUvarint(buf, uint64(len(spec)))
	buf = append(buf, spec...)
	buf = binary.AppendUvarint(buf, uint64(len(views)))
	appendString := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, v := range views {
		appendString(v.name)
		buf = append(buf, v.variant)
		buf = binary.AppendUvarint(buf, uint64(len(v.include)))
		for _, m := range v.include {
			appendString(m)
		}
		names := v.deps.Modules()
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			appendString(name)
			buf = v.deps[name].AppendBinary(buf)
		}
	}
	return buf
}

// defaultForgedView is the default view of spec as a forged entry.
func defaultForgedView(spec *workflow.Specification, variant byte) forgedView {
	v := view.Default(spec)
	return forgedView{name: v.Name, variant: variant, include: v.ExpandableModules(), deps: v.Deps}
}

func specJSON(t *testing.T, spec *workflow.Specification) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// doublingSpecJSON is the grammar C_{i+1} -> [C_i, C_i] nested depth levels
// deep over a one-port atomic C_0: the start module C_depth declares 2^depth
// input and output ports in a few bytes of JSON. Labeling it under the
// default view would allocate 4^depth bits for λ*(S) alone.
func doublingSpecJSON(t *testing.T, depth int) []byte {
	t.Helper()
	type module struct {
		Name string `json:"name"`
		In   int    `json:"in"`
		Out  int    `json:"out"`
	}
	type production struct {
		LHS   string   `json:"lhs"`
		Nodes []string `json:"nodes"`
	}
	doc := struct {
		Start        string              `json:"start"`
		Modules      []module            `json:"modules"`
		Productions  []production        `json:"productions"`
		Dependencies map[string][]string `json:"dependencies"`
	}{Start: fmt.Sprintf("C%d", depth), Dependencies: map[string][]string{"C0": {"1"}}}
	for i := 0; i <= depth; i++ {
		doc.Modules = append(doc.Modules, module{Name: fmt.Sprintf("C%d", i), In: 1 << i, Out: 1 << i})
		if i > 0 {
			child := fmt.Sprintf("C%d", i-1)
			doc.Productions = append(doc.Productions, production{LHS: fmt.Sprintf("C%d", i), Nodes: []string{child, child}})
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// permutationRecursionSpec is a safe, strictly linear-recursive spec whose
// one recursion R -> [P, R] has the cycle matrix λ(P), a permutation of the
// given cycle lengths: its powers repeat only after their least common
// multiple. R's second production R -> [Q] ends the recursion, and Q's
// black-box dependencies keep the two productions consistent.
func permutationRecursionSpec(t *testing.T, cycleLengths []int) *workflow.Specification {
	t.Helper()
	d := 0
	for _, l := range cycleLengths {
		d += l
	}
	sigma := boolmat.New(d, d)
	base := 0
	for _, l := range cycleLengths {
		for i := 0; i < l; i++ {
			sigma.Set(base+i, base+(i+1)%l, true)
		}
		base += l
	}
	g := &workflow.Grammar{
		Start: "R",
		Modules: map[string]workflow.Module{
			"R": {Name: "R", In: d, Out: 1},
			"P": {Name: "P", In: d, Out: d},
			"Q": {Name: "Q", In: d, Out: 1},
		},
	}
	recurse := &workflow.SimpleWorkflow{Nodes: []string{"P", "R"}}
	for i := 0; i < d; i++ {
		recurse.Edges = append(recurse.Edges, workflow.DataEdge{FromNode: 0, FromPort: i, ToNode: 1, ToPort: i})
	}
	g.Productions = []workflow.Production{
		{LHS: "R", RHS: recurse},
		{LHS: "R", RHS: &workflow.SimpleWorkflow{Nodes: []string{"Q"}}},
	}
	spec, err := workflow.NewSpecification(g, workflow.DependencyAssignment{
		"P": sigma,
		"Q": workflow.CompleteDeps(g.Modules["Q"]),
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadRejectsForgedSnapshots re-frames hand-edited payloads with a valid
// CRC, so each reaches the payload decoder, and requires every one to fail
// with ErrCorruptSnapshot for the reason it was forged for, in under a
// second and within the load's allocation budget.
func TestLoadRejectsForgedSnapshots(t *testing.T) {
	paper := workloads.PaperExample()
	paperJSON := specJSON(t, paper)
	def := defaultForgedView(paper, 1)

	withAtomic := def
	withAtomic.include = append(append([]string(nil), def.include...), paper.Grammar.Atomics()[0])

	wrongDims := def
	wrongDims.deps = def.deps.Clone()
	atomic := def.deps.Modules()[0]
	m := paper.Grammar.Modules[atomic]
	wrongDims.deps[atomic] = boolmat.Full(m.In+1, m.Out)

	unsafeGrammar, unsafeDeps, err := workloads.UnsafeExample()
	if err != nil {
		t.Fatal(err)
	}
	unsafeSpec, err := workflow.NewSpecification(unsafeGrammar, unsafeDeps)
	if err != nil {
		t.Fatal(err)
	}

	perm := permutationRecursionSpec(t, []int{2, 3, 5, 7, 11, 13, 17, 19, 23})
	doubling := doublingSpecJSON(t, 40)

	cases := []struct {
		name  string
		magic string
		data  []byte // the payload
		want  string // a fragment of the rejection naming its reason
	}{
		{"variant byte 3", "", forgePayload(paperJSON, defaultForgedView(paper, 3)), "unknown variant 3"},
		{"∆′ naming an atomic module", "", forgePayload(paperJSON, withAtomic), "is not a composite module"},
		{"λ′ with the wrong dimensions", "", forgePayload(paperJSON, wrongDims), "dependency matrix for"},
		{"the same view twice", "", forgePayload(paperJSON, def, def), "stores view \"default\" twice"},
		{"an unsafe view", "", forgePayload(specJSON(t, unsafeSpec), defaultForgedView(unsafeSpec, 1)), "is unsafe"},
		{"nested doubling 40 levels deep", "", forgePayload(doubling, defaultForgedView(mustParse(t, doubling), 0)), "over the"},
		{"nested doubling 40 levels deep, no views", "", forgePayload(doubling), "declares 1099511627776+1099511627776 ports"},
		{"long-period recursion", "", forgePayload(specJSON(t, perm), defaultForgedView(perm, 2)), "have not repeated"},
		{"retired FVLSNAP\\x01 magic", "FVLSNAP\x01", forgePayload(paperJSON, def), "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			magic := tc.magic
			if magic == "" {
				magic = "FVLSNAP\x02"
			}
			data := framePayload(magic, tc.data)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			began := time.Now()
			_, err := labelstore.LoadBytes(data)
			took := time.Since(began)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, faults.ErrCorruptSnapshot) {
				t.Fatalf("want ErrCorruptSnapshot, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected for another reason than %q: %v", tc.want, err)
			}
			if took > time.Second {
				t.Fatalf("rejection took %v", took)
			}
			if grew, budget := after.TotalAlloc-before.TotalAlloc, allocBudget(len(data)); grew > budget {
				t.Fatalf("loading %d bytes allocated %d bytes, budget %d", len(data), grew, budget)
			}
		})
	}

	// The forger itself is sound: unedited entries load.
	if _, err := labelstore.LoadBytes(framePayload("FVLSNAP\x02", forgePayload(paperJSON, def))); err != nil {
		t.Fatalf("forged copy of a valid snapshot: %v", err)
	}
	short := permutationRecursionSpec(t, []int{2, 3})
	if _, err := labelstore.LoadBytes(framePayload("FVLSNAP\x02", forgePayload(specJSON(t, short), defaultForgedView(short, 2)))); err != nil {
		t.Fatalf("short-period recursion: %v", err)
	}
}

func mustParse(t *testing.T, specJSON []byte) *workflow.Specification {
	t.Helper()
	spec := &workflow.Specification{}
	if err := spec.UnmarshalJSON(specJSON); err != nil {
		t.Fatal(err)
	}
	return spec
}
