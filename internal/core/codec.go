package core

import (
	"fmt"
	"math"
	"math/bits"
)

// bitWriter accumulates bits most-significant-first into a byte slice.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) writeBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

func (w *bitWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.writeBit(uint(v>>uint(i)) & 1)
	}
}

// writeGamma writes v >= 1 in Elias-gamma code: the unary length of the
// binary representation followed by its low-order bits. Values below 1 are
// unencodable and panic; callers shift their ranges to be >= 1.
func (w *bitWriter) writeGamma(v uint64) {
	if v < 1 {
		panic("core: gamma code requires v >= 1")
	}
	n := bits.Len64(v)
	for i := 0; i < n-1; i++ {
		w.writeBit(0)
	}
	w.writeBits(v, n)
}

func (w *bitWriter) len() int { return w.nbit }

type bitReader struct {
	buf  []byte
	pos  int
	nbit int
}

func newBitReader(buf []byte, nbit int) *bitReader { return &bitReader{buf: buf, nbit: nbit} }

func (r *bitReader) readBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, fmt.Errorf("core: bit stream exhausted")
	}
	b := (r.buf[r.pos/8] >> uint(7-r.pos%8)) & 1
	r.pos++
	return uint(b), nil
}

func (r *bitReader) readBits(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *bitReader) readGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		// A 63-bit unary prefix would decode to a value that overflows
		// uint64; no writer emits one, so the stream is corrupt.
		if zeros > 62 {
			return 0, fmt.Errorf("core: gamma code with %d-bit unary prefix exceeds the representable range", zeros+1)
		}
	}
	v := uint64(1)
	for i := 0; i < zeros; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// bitsFor returns the number of bits needed to store values in [0, max].
func bitsFor(max int) int {
	if max <= 0 {
		return 1
	}
	return bits.Len(uint(max))
}

// Codec encodes data labels into a compact bit string and measures their
// length in bits. Quantities bounded by the (constant-size) specification —
// production index k, cycle index s, cycle offset t, port index — use fixed
// widths derived from the specification; child positions i, which grow with
// the run, use Elias-gamma codes; the common prefix of the output-port path
// and the input-port path is factored out, as suggested in Section 4.2.2.
//
// Decode treats its input as untrusted: every fixed-width field is checked
// against the real maximum the width was derived from (bitsFor rounds up to
// whole bits, so the widths admit values past the maxima), and the stream
// must be consumed exactly, so Decode accepts Encode's output and nothing
// else.
type Codec struct {
	kBits    int
	sBits    int
	tBits    int
	portBits int

	// The real maxima behind the widths above, used to reject decoded
	// values that a width admits but no writer can produce.
	maxK    int // production count
	maxS    int // cycle count
	maxT    int // longest cycle length
	maxPort int // largest port count of any module, capped at what a PortLabel holds
}

// NewCodec derives the fixed field widths from the scheme's specification.
func NewCodec(s *Scheme) *Codec {
	maxPort := 0
	for _, m := range s.Spec.Grammar.Modules {
		if m.In > maxPort {
			maxPort = m.In
		}
		if m.Out > maxPort {
			maxPort = m.Out
		}
	}
	maxCycleLen := 1
	for _, c := range s.Cycles {
		if c.Len() > maxCycleLen {
			maxCycleLen = c.Len()
		}
	}
	return &Codec{
		kBits:    bitsFor(len(s.Spec.Grammar.Productions)),
		sBits:    bitsFor(len(s.Cycles)),
		tBits:    bitsFor(maxCycleLen),
		portBits: bitsFor(maxPort),
		maxK:     len(s.Spec.Grammar.Productions),
		maxS:     len(s.Cycles),
		maxT:     maxCycleLen,
		maxPort:  min(maxPort, math.MaxInt32+1),
	}
}

func (c *Codec) writeEdge(w *bitWriter, e EdgeLabel) {
	if e.Recursive() {
		w.writeBit(1)
		w.writeBits(uint64(e.S()), c.sBits)
		w.writeBits(uint64(e.T()), c.tBits)
	} else {
		w.writeBit(0)
		w.writeBits(uint64(e.K()), c.kBits)
	}
	w.writeGamma(uint64(e.I()))
}

func (c *Codec) readEdge(r *bitReader) (EdgeLabel, error) {
	rec, err := r.readBit()
	if err != nil {
		return EdgeLabel{}, err
	}
	var ks, t uint64
	if rec == 1 {
		if ks, err = r.readBits(c.sBits); err != nil {
			return EdgeLabel{}, err
		}
		if ks < 1 || ks > uint64(c.maxS) {
			return EdgeLabel{}, fmt.Errorf("core: decoded cycle index %d out of range [1, %d]", ks, c.maxS)
		}
		if t, err = r.readBits(c.tBits); err != nil {
			return EdgeLabel{}, err
		}
		if t < 1 || t > uint64(c.maxT) {
			return EdgeLabel{}, fmt.Errorf("core: decoded cycle offset %d out of range [1, %d]", t, c.maxT)
		}
	} else {
		if ks, err = r.readBits(c.kBits); err != nil {
			return EdgeLabel{}, err
		}
		if ks < 1 || ks > uint64(c.maxK) {
			return EdgeLabel{}, fmt.Errorf("core: decoded production index %d out of range [1, %d]", ks, c.maxK)
		}
	}
	i, err := r.readGamma()
	if err != nil {
		return EdgeLabel{}, err
	}
	// NewScheme keeps the maxima of K, S and T within their fields; the
	// child position is bounded here.
	if i > MaxEdgeChild {
		return EdgeLabel{}, fmt.Errorf("core: decoded child position %d does not fit an edge label (%d)", i, MaxEdgeChild)
	}
	if rec == 1 {
		return RecursiveEdge(int(ks), int(t), int(i)), nil
	}
	return NonRecursiveEdge(int(ks), int(i)), nil
}

func (c *Codec) writePath(w *bitWriter, path []EdgeLabel) {
	w.writeGamma(uint64(len(path) + 1))
	for _, e := range path {
		c.writeEdge(w, e)
	}
}

func (c *Codec) readPath(r *bitReader) ([]EdgeLabel, error) {
	n, err := r.readGamma()
	if err != nil {
		return nil, err
	}
	count := int(n) - 1
	// Untrusted input: a corrupted gamma code can claim up to 2^62 edges.
	// Every encoded edge costs at least 2 bits (the recursive flag plus a
	// one-bit gamma terminator), so a count beyond half the remaining bit
	// budget cannot be honored by any well-formed stream — reject it before
	// allocating, instead of attempting an unbounded allocation that only
	// fails once the stream runs dry.
	if remaining := r.nbit - r.pos; count > remaining/2 {
		return nil, fmt.Errorf("core: path claims %d edges but only %d bits remain", count, remaining)
	}
	path := make([]EdgeLabel, 0, count)
	for i := 0; i < count; i++ {
		e, err := c.readEdge(r)
		if err != nil {
			return nil, err
		}
		path = append(path, e)
	}
	return path, nil
}

// Encode serializes a data label; it returns the byte buffer and the exact
// number of significant bits (the label length reported by the experiments).
func (c *Codec) Encode(d DataLabel) ([]byte, int) {
	w := &bitWriter{}
	switch {
	case !d.Out.Present() && !d.In.Present():
		w.writeBits(0, 2)
	case !d.Out.Present():
		w.writeBits(1, 2) // initial input
		c.writePath(w, d.In.Path)
		w.writeBits(uint64(d.In.Port), c.portBits)
	case !d.In.Present():
		w.writeBits(2, 2) // final output
		c.writePath(w, d.Out.Path)
		w.writeBits(uint64(d.Out.Port), c.portBits)
	default:
		w.writeBits(3, 2) // intermediate: shared prefix + two suffixes
		shared := commonPrefixLen(d.Out.Path, d.In.Path)
		c.writePath(w, d.Out.Path[:shared])
		c.writePath(w, d.Out.Path[shared:])
		w.writeBits(uint64(d.Out.Port), c.portBits)
		c.writePath(w, d.In.Path[shared:])
		w.writeBits(uint64(d.In.Port), c.portBits)
	}
	return w.buf, w.len()
}

// SizeBits returns the encoded length of the label in bits.
func (c *Codec) SizeBits(d DataLabel) int {
	_, n := c.Encode(d)
	return n
}

// Decode parses a label previously produced by Encode. The input is
// untrusted (labels may arrive from storage or the network): decoded fields
// are checked against the specification-derived maxima, the declared bit
// count must fit the buffer, and the stream must be consumed exactly —
// trailing bits are rejected, so for every (buf, nbit) pair there is at most
// one label, the one Encode produces.
func (c *Codec) Decode(buf []byte, nbit int) (DataLabel, error) {
	if nbit < 0 || nbit > 8*len(buf) {
		return DataLabel{}, fmt.Errorf("core: declared bit count %d does not fit a %d-byte buffer", nbit, len(buf))
	}
	if want := (nbit + 7) / 8; len(buf) != want {
		return DataLabel{}, fmt.Errorf("core: %d-bit label must occupy exactly %d bytes, got %d", nbit, want, len(buf))
	}
	if pad := 8*len(buf) - nbit; pad > 0 && buf[len(buf)-1]&(1<<uint(pad)-1) != 0 {
		return DataLabel{}, fmt.Errorf("core: nonzero padding bits after the %d-bit label", nbit)
	}
	r := newBitReader(buf, nbit)
	d, err := c.decodeBody(r)
	if err != nil {
		return DataLabel{}, err
	}
	if r.pos != r.nbit {
		return DataLabel{}, fmt.Errorf("core: %d unconsumed trailing bits after a complete label", r.nbit-r.pos)
	}
	return d, nil
}

func (c *Codec) decodeBody(r *bitReader) (DataLabel, error) {
	kind, err := r.readBits(2)
	if err != nil {
		return DataLabel{}, err
	}
	readPort := func() (PortLabel, error) {
		path, err := c.readPath(r)
		if err != nil {
			return PortLabel{}, err
		}
		p, err := r.readBits(c.portBits)
		if err != nil {
			return PortLabel{}, err
		}
		if p >= uint64(c.maxPort) {
			return PortLabel{}, fmt.Errorf("core: decoded port index %d out of range [0, %d)", p, c.maxPort)
		}
		return NewPortLabel(path, int32(p)), nil
	}
	switch kind {
	case 0:
		return DataLabel{}, nil
	case 1:
		in, err := readPort()
		return DataLabel{In: in}, err
	case 2:
		out, err := readPort()
		return DataLabel{Out: out}, err
	default:
		shared, err := c.readPath(r)
		if err != nil {
			return DataLabel{}, err
		}
		outSuffix, err := c.readPath(r)
		if err != nil {
			return DataLabel{}, err
		}
		outPort, err := r.readBits(c.portBits)
		if err != nil {
			return DataLabel{}, err
		}
		inSuffix, err := c.readPath(r)
		if err != nil {
			return DataLabel{}, err
		}
		inPort, err := r.readBits(c.portBits)
		if err != nil {
			return DataLabel{}, err
		}
		if outPort >= uint64(c.maxPort) || inPort >= uint64(c.maxPort) {
			return DataLabel{}, fmt.Errorf("core: decoded port index (%d, %d) out of range [0, %d)", outPort, inPort, c.maxPort)
		}
		// Encode factors out the *maximal* common prefix, so suffixes that
		// both start with the same edge can only come from a non-canonical
		// writer; accepting them would let two distinct streams decode to
		// the same label.
		if len(outSuffix) > 0 && len(inSuffix) > 0 && outSuffix[0] == inSuffix[0] {
			return DataLabel{}, fmt.Errorf("core: non-canonical shared prefix: both path suffixes start with %v", outSuffix[0])
		}
		return DataLabel{
			Out: NewPortLabel(append(append([]EdgeLabel(nil), shared...), outSuffix...), int32(outPort)),
			In:  NewPortLabel(append(append([]EdgeLabel(nil), shared...), inSuffix...), int32(inPort)),
		}, nil
	}
}
