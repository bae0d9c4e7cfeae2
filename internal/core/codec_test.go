package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/view"
	"repro/internal/workloads"
)

// randomLabel generates a structurally plausible data label for the paper
// example's scheme: edge fields stay within the ranges the codec's fixed
// widths were derived from, child positions and path lengths vary freely.
func randomLabel(rng *rand.Rand, scheme *core.Scheme) core.DataLabel {
	prods := len(scheme.Spec.Grammar.Productions)
	cycles := len(scheme.Cycles)
	randPath := func(n int) []core.EdgeLabel {
		path := make([]core.EdgeLabel, n)
		for i := range path {
			if cycles > 0 && rng.Intn(3) == 0 {
				s := 1 + rng.Intn(cycles)
				t := 1 + rng.Intn(scheme.Cycles[s-1].Len())
				path[i] = core.RecursiveEdge(s, t, 1+rng.Intn(500))
			} else {
				path[i] = core.NonRecursiveEdge(1+rng.Intn(prods), 1+rng.Intn(400))
			}
		}
		return path
	}
	randPort := func(path []core.EdgeLabel) core.PortLabel {
		return core.NewPortLabel(path, rng.Int31n(2))
	}
	switch rng.Intn(4) {
	case 0: // initial input
		return core.DataLabel{In: randPort(randPath(rng.Intn(3)))}
	case 1: // final output
		return core.DataLabel{Out: randPort(randPath(rng.Intn(3)))}
	default: // intermediate item with a shared prefix
		shared := randPath(rng.Intn(5))
		out := append(append([]core.EdgeLabel(nil), shared...), randPath(rng.Intn(3))...)
		in := append(append([]core.EdgeLabel(nil), shared...), randPath(rng.Intn(3))...)
		return core.DataLabel{Out: randPort(out), In: randPort(in)}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	rng := rand.New(rand.NewSource(99))

	roundTrips := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		_ = rng
		label := randomLabel(local, scheme)
		buf, nbits := codec.Encode(label)
		decoded, err := codec.Decode(buf, nbits)
		if err != nil {
			t.Logf("decode error for %v: %v", label, err)
			return false
		}
		return reflect.DeepEqual(normalize(label), normalize(decoded))
	}
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps nil and empty paths to a canonical form so DeepEqual
// compares label structure, not slice identity.
func normalize(d core.DataLabel) [2][]string {
	var out [2][]string
	render := func(p core.PortLabel) []string {
		if !p.Present() {
			return nil
		}
		parts := make([]string, 0, len(p.Path)+1)
		for _, e := range p.Path {
			parts = append(parts, e.String())
		}
		return append(parts, string(rune('0'+p.Port)))
	}
	out[0] = render(d.Out)
	out[1] = render(d.In)
	return out
}

func TestCodecRoundTripOnRealRunLabels(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 300, Rand: rand.New(rand.NewSource(123))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range r.Items {
		label, _ := labeler.Label(item.ID)
		buf, nbits := codec.Encode(label)
		decoded, err := codec.Decode(buf, nbits)
		if err != nil {
			t.Fatalf("item %d: decode: %v", item.ID, err)
		}
		if !reflect.DeepEqual(normalize(label), normalize(decoded)) {
			t.Fatalf("item %d: round trip changed the label: %v -> %v", item.ID, label, decoded)
		}
		if nbits <= 0 || nbits > 8*len(buf) {
			t.Fatalf("item %d: inconsistent bit count %d for %d bytes", item.ID, nbits, len(buf))
		}
	}
}

func TestCodecDecodeRejectsTruncatedInput(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	label := core.DataLabel{
		Out: core.NewPortLabel([]core.EdgeLabel{core.NonRecursiveEdge(1, 3), core.RecursiveEdge(1, 1, 5)}, 1),
		In:  core.NewPortLabel([]core.EdgeLabel{core.NonRecursiveEdge(1, 3), core.NonRecursiveEdge(5, 2)}, 0),
	}
	buf, nbits := codec.Encode(label)
	for cut := 1; cut < nbits; cut += 7 {
		if _, err := codec.Decode(buf, nbits-cut); err == nil {
			// Truncation may still yield a structurally valid shorter label in
			// rare alignments, but it must never panic; reaching here is fine.
			continue
		}
	}
}

// TestCodecDecodeRejectsOutOfRangeFields exploits the slack of the fixed
// field widths: bitsFor rounds up to whole bits, so the wire format can
// represent production indices, cycle indices, offsets and ports past the
// real maxima of the specification. Decode must reject every such value.
func TestCodecDecodeRejectsOutOfRangeFields(t *testing.T) {
	spec := workloads.PaperExample() // 8 productions (kBits 4), 2 cycles (sBits 2), max cycle len 2 (tBits 2), max port 2 (portBits 2)
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()

	encode := func(d core.DataLabel) ([]byte, int) {
		buf, nbits := codec.Encode(d)
		return buf, nbits
	}
	mustReject := func(name string, buf []byte, nbits int) {
		t.Helper()
		if _, err := codec.Decode(buf, nbits); err == nil {
			t.Errorf("%s: Decode accepted an out-of-range field", name)
		}
	}

	// Port 3 is representable in 2 bits but the largest module has 2 ports.
	// Encode writes it happily (it only measures lengths); Decode must not.
	buf, nbits := encode(core.DataLabel{In: core.NewPortLabel(nil, 3)})
	mustReject("port past the module maximum", buf, nbits)

	// Production index 0 and 9..15 are representable in 4 bits; only 1..8 exist.
	for _, k := range []int{0, 9, 15} {
		buf, nbits := encode(core.DataLabel{In: core.NewPortLabel([]core.EdgeLabel{core.NonRecursiveEdge(k, 1)}, 0)})
		mustReject(fmt.Sprintf("production index %d", k), buf, nbits)
	}

	// Cycle index 0 and 3 are representable in 2 bits; only cycles 1 and 2 exist.
	for _, s := range []int{0, 3} {
		buf, nbits := encode(core.DataLabel{In: core.NewPortLabel([]core.EdgeLabel{core.RecursiveEdge(s, 1, 1)}, 0)})
		mustReject(fmt.Sprintf("cycle index %d", s), buf, nbits)
	}

	// Cycle offset 0 and 3 are representable in 2 bits; offsets are 1-based
	// and the longest cycle has 2 edges.
	for _, offset := range []int{0, 3} {
		buf, nbits := encode(core.DataLabel{In: core.NewPortLabel([]core.EdgeLabel{core.RecursiveEdge(1, offset, 1)}, 0)})
		mustReject(fmt.Sprintf("cycle offset %d", offset), buf, nbits)
	}
}

func TestCodecDecodeRejectsTrailingBits(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	label := core.DataLabel{In: core.NewPortLabel([]core.EdgeLabel{core.NonRecursiveEdge(1, 3)}, 1)}
	buf, nbits := codec.Encode(label)
	if _, err := codec.Decode(buf, nbits); err != nil {
		t.Fatalf("the canonical encoding must decode: %v", err)
	}
	// Declaring extra bits beyond the complete label must be rejected, so a
	// (buf, nbit) pair decodes to at most the one label Encode produced.
	padded := append(append([]byte(nil), buf...), 0)
	for extra := 1; extra <= 8; extra++ {
		if _, err := codec.Decode(padded, nbits+extra); err == nil {
			t.Fatalf("Decode accepted %d unconsumed trailing bits", extra)
		}
	}
}

func TestCodecDecodeRejectsInconsistentBitCount(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	// A bit count larger than the buffer previously indexed out of range.
	for _, tc := range []struct {
		buf  []byte
		nbit int
	}{
		{nil, 1},
		{[]byte{}, 8},
		{[]byte{0xFF}, 9},
		{[]byte{0xFF}, -1},
	} {
		if _, err := codec.Decode(tc.buf, tc.nbit); err == nil {
			t.Errorf("Decode(%v, %d) accepted an inconsistent bit count", tc.buf, tc.nbit)
		}
	}
}

// TestCodecReadPathRejectsHugeEdgeCount reproduces the unbounded-allocation
// bug: a path whose Elias-gamma length field claims ~2^L edges used to make
// Decode allocate the full slice before noticing the stream was exhausted.
func TestCodecReadPathRejectsHugeEdgeCount(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	// Build a raw stream by hand: kind=1 (initial input), then a gamma code
	// claiming 2^40 path entries, then nothing. Gamma of v = 41 zero bits
	// followed by the 41 significant bits of v; v = count+1 = 2^40+1.
	bits := []uint{0, 1} // kind = 1
	for i := 0; i < 40; i++ {
		bits = append(bits, 0) // unary prefix
	}
	bits = append(bits, 1) // leading significant bit of v
	for i := 0; i < 39; i++ {
		bits = append(bits, 0)
	}
	bits = append(bits, 1) // v = 2^40 + 1
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			buf[i/8] |= 1 << uint(7-i%8)
		}
	}
	if _, err := codec.Decode(buf, len(bits)); err == nil {
		t.Fatal("Decode accepted a path claiming 2^40 edges in a 50-bit stream")
	}
}

// TestCodecDecodeRejectsNonCanonicalForms pins the canonicality guarantee:
// a buffer longer than the label needs, nonzero padding bits, or a kind-3
// label whose suffixes share their first edge (i.e. a non-maximal shared
// prefix) are all representable on the wire but never produced by Encode,
// and must be rejected so Decode accepts exactly Encode's image.
func TestCodecDecodeRejectsNonCanonicalForms(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()

	label := core.DataLabel{In: core.NewPortLabel([]core.EdgeLabel{core.NonRecursiveEdge(1, 3)}, 1)}
	buf, nbits := codec.Encode(label)
	if _, err := codec.Decode(append(append([]byte(nil), buf...), 0), nbits); err == nil {
		t.Error("Decode accepted a buffer with a spare byte beyond the label")
	}
	padded := append([]byte(nil), buf...)
	padded[len(padded)-1] |= 1 // a padding bit below the declared bit count
	if 8*len(buf)-nbits > 0 {
		if _, err := codec.Decode(padded, nbits); err == nil {
			t.Error("Decode accepted nonzero padding bits")
		}
	}

	// A kind-3 label whose out- and in-suffixes start with the same edge can
	// only be written with a non-maximal shared prefix. Build the stream by
	// hand: Encode would factor the common edge out.
	e := core.NonRecursiveEdge(1, 1)
	shared := core.DataLabel{
		Out: core.NewPortLabel([]core.EdgeLabel{e}, 0),
		In:  core.NewPortLabel([]core.EdgeLabel{e}, 0),
	}
	cBuf, cBits := codec.Encode(shared)
	if _, err := codec.Decode(cBuf, cBits); err != nil {
		t.Fatalf("the canonical encoding must decode: %v", err)
	}
	raw := rawNonCanonicalSharedPrefix(t)
	if _, err := codec.Decode(raw.buf, raw.nbit); err == nil {
		t.Error("Decode accepted a kind-3 stream with a non-maximal shared prefix")
	}
}

// rawNonCanonicalSharedPrefix hand-assembles the paper-example stream for
// the label ({(1,1),0}, {(1,1),0}) written with an EMPTY shared prefix:
// kind=3, shared path of length 0, then two identical one-edge suffixes.
func rawNonCanonicalSharedPrefix(t *testing.T) struct {
	buf  []byte
	nbit int
} {
	t.Helper()
	var bits []uint
	push := func(v uint64, width int) {
		for i := width - 1; i >= 0; i-- {
			bits = append(bits, uint(v>>uint(i))&1)
		}
	}
	gamma := func(v uint64) {
		n := 0
		for tmp := v; tmp > 1; tmp >>= 1 {
			n++
		}
		for i := 0; i < n; i++ {
			bits = append(bits, 0)
		}
		push(v, n+1)
	}
	suffix := func() {
		gamma(2)               // path length 1 (+1 encoding)
		bits = append(bits, 0) // non-recursive edge
		push(1, 4)             // k = 1 (kBits = 4 for the paper example)
		gamma(1)               // i = 1
	}
	push(3, 2) // kind 3: intermediate
	gamma(1)   // shared path: empty
	suffix()   // out suffix: (1,1)
	push(0, 2) // out port 0 (portBits = 2)
	suffix()   // in suffix: (1,1)
	push(0, 2) // in port 0
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			buf[i/8] |= 1 << uint(7-i%8)
		}
	}
	return struct {
		buf  []byte
		nbit int
	}{buf, len(bits)}
}

// FuzzCodecDecode feeds arbitrary bytes to Decode: it must return an error
// or a label, never panic — and since Decode accepts exactly Encode's
// image, an accepted label must re-encode to the identical bit stream.
// Queried against a fixed valid label in either direction, an accepted label
// must also get the same answer, or an error on both sides, from a bare
// space-efficient query and from one served by a long-lived plan.
func FuzzCodecDecode(f *testing.F) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		f.Fatal(err)
	}
	codec := scheme.Codec()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		buf, nbits := codec.Encode(randomLabel(rng, scheme))
		f.Add(buf, nbits)
	}
	f.Add([]byte{0xFF, 0xFF}, 16)
	f.Add([]byte{}, 0)

	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		f.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		f.Fatal(err)
	}
	var fixed core.DataLabel
	for id := 1; id <= labeler.Count(); id++ {
		d, _ := labeler.Label(id)
		if d.In.Present() && d.Out.Present() && !fixed.In.Present() {
			fixed = d
		}
		if id%15 == 0 {
			buf, nbits := codec.Encode(d)
			f.Add(buf, nbits)
		}
	}
	vl, err := scheme.LabelView(view.Default(spec), core.VariantSpaceEfficient)
	if err != nil {
		f.Fatal(err)
	}
	// One plan serves every input, so a slot filled by one query is hit by
	// the next; the mutex keeps the session goroutine-confined.
	var mu sync.Mutex
	planned := core.NewQuerySession()
	planned.EnsurePlan(nil)
	f.Cleanup(planned.Close)

	f.Fuzz(func(t *testing.T, buf []byte, nbit int) {
		d, err := codec.Decode(buf, nbit)
		if err != nil {
			return
		}
		buf2, nbit2 := codec.Encode(d)
		if nbit2 != nbit || !bytes.Equal(buf2, buf) {
			t.Fatalf("accepted stream (%x, %d bits) is not the canonical encoding (%x, %d bits) of %v", buf, nbit, buf2, nbit2, d)
		}
		d2, err := codec.Decode(buf2, nbit2)
		if err != nil {
			t.Fatalf("re-encoding an accepted label failed to decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(d), normalize(d2)) {
			t.Fatalf("re-encode round trip changed the label: %v -> %v", d, d2)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, pair := range [][2]core.DataLabel{{d, fixed}, {fixed, d}} {
			want, wantErr := vl.DependsOn(pair[0], pair[1])
			got, gotErr := planned.DependsOn(vl, pair[0], pair[1])
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("DependsOn(%v, %v): plan-attached (%v, %v), bare (%v, %v)", pair[0], pair[1], got, gotErr, want, wantErr)
			}
		}
	})
}

func TestEdgeAndPortLabelStrings(t *testing.T) {
	e1 := core.NonRecursiveEdge(1, 5)
	if e1.String() != "(1,5)" {
		t.Fatalf("edge string = %q", e1.String())
	}
	e2 := core.RecursiveEdge(1, 1, 5)
	if e2.String() != "(1,1,5)" {
		t.Fatalf("recursive edge string = %q", e2.String())
	}
	p := core.NewPortLabel([]core.EdgeLabel{e1, e2}, 1)
	if p.String() != "{(1,5),(1,1,5),1}" {
		t.Fatalf("port label string = %q", p.String())
	}
	d := core.DataLabel{Out: p}
	if !d.IsFinalOutput() || d.IsInitialInput() {
		t.Fatalf("label with only an output port must be a final output")
	}
}
