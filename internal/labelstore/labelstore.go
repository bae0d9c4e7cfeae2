// Package labelstore persists labeling schemes and view definitions so a
// serving process can restart from one artifact: the specification, the
// scheme kind and, per view, its name, variant, ∆′ and λ′. A view label
// φv(U) is a pure function of those inputs (Sections 4.3 and 4.4.3), so
// loading relabels every view with core.Scheme.LabelViewWithin instead of
// reading derived matrices back.
//
// A snapshot is a single binary blob:
//
//	offset  size  field
//	0       8     magic "FVLSNAP\x02" (the last byte is the format version)
//	8       4     uint32 LE: CRC-32 (IEEE) of the payload
//	12      8     uint64 LE: payload length in bytes
//	20      —     payload
//
// and the payload is a sequence of sections built from three primitives —
// unsigned varints, length-prefixed strings and boolmat's binary matrix
// encoding:
//
//	byte    scheme kind (0 = compact, 1 = basic / Theorem-1 fallback)
//	bytes   the specification as the workflow package's JSON document
//	uvarint number of views, then per view:
//	  string  view name
//	  byte    variant
//	  strings ∆′ (the expandable composite modules)
//	  assign  λ′ (the view's dependency assignment)
//
// A snapshot of another version (FVLSNAP\x01 stored the labels' derived
// matrices) is refused like any other bad magic.
//
// Everything read back is untrusted. The checksum catches accidental
// corruption; byte-budget checks before every allocation, the strict
// validation of the specification, the scheme and view.New, and the safety
// analysis of LabelView catch the rest. Relabeling allocates what the
// labels need, which a few forged bytes can make huge (a start module with
// 2^40 ports is a short JSON number), so a load runs under an allocation
// budget funded by its input: loadBudget(len(data)) bytes. The budget also
// covers the start-module labels that every session of the scheme
// allocates before its first step. Load returns an error — never a panic
// or an allocation past that budget — on arbitrary input (see FuzzLoad).
package labelstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/boolmat"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/view"
	"repro/internal/workflow"
)

// magic identifies a snapshot; its final byte is the format version.
var magic = [8]byte{'F', 'V', 'L', 'S', 'N', 'A', 'P', 0x02}

const headerSize = 8 + 4 + 8

// maxStringLen bounds decoded module and view names; real names are a few
// characters, the bound only stops corrupted lengths from driving huge
// allocations.
const maxStringLen = 1 << 16

// Snapshot is the in-memory form of a persisted labeling state: one scheme
// and any number of view labels, ready to serve queries.
type Snapshot struct {
	Scheme *core.Scheme
	Labels []*core.ViewLabel
}

// Label returns the label for the named view, or false.
func (s *Snapshot) Label(viewName string) (*core.ViewLabel, bool) {
	for _, vl := range s.Labels {
		if vl.View().Name == viewName {
			return vl, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Saving.
// ---------------------------------------------------------------------------

// Save writes a snapshot of the scheme and the views of the given labels.
// Every label must have been computed over the scheme. The bytes depend only
// on the specification and the view definitions, so saving a loaded
// snapshot reproduces it exactly.
func Save(w io.Writer, scheme *core.Scheme, labels []*core.ViewLabel) error {
	if scheme == nil {
		return fmt.Errorf("labelstore: nil scheme")
	}
	payload, err := encodePayload(scheme, labels)
	if err != nil {
		return err
	}
	header := make([]byte, headerSize)
	copy(header, magic[:])
	binary.LittleEndian.PutUint32(header[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

func encodePayload(scheme *core.Scheme, labels []*core.ViewLabel) ([]byte, error) {
	var buf []byte
	if scheme.IsBasic() {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	spec, err := json.Marshal(scheme.Spec)
	if err != nil {
		return nil, err
	}
	buf = appendBytes(buf, spec)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	// Load rejects snapshots that store a view twice, so Save must too: the
	// writer may never produce an artifact its own reader calls corrupt.
	names := make(map[string]bool, len(labels))
	for i, vl := range labels {
		if vl == nil {
			return nil, fmt.Errorf("labelstore: label %d is nil", i)
		}
		v := vl.View()
		if v.Spec != scheme.Spec {
			return nil, fmt.Errorf("labelstore: label %d (view %q) belongs to a different specification", i, v.Name)
		}
		if names[v.Name] {
			return nil, fmt.Errorf("labelstore: two labels for view %q", v.Name)
		}
		names[v.Name] = true
		buf = appendString(buf, v.Name)
		buf = append(buf, byte(vl.Variant()))
		buf = appendStrings(buf, v.ExpandableModules())
		buf = appendAssignment(buf, v.Deps)
	}
	return buf, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

// appendAssignment writes a dependency assignment in sorted module order so
// snapshots are byte-for-byte deterministic.
func appendAssignment(buf []byte, a workflow.DependencyAssignment) []byte {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		buf = a[name].AppendBinary(buf)
	}
	return buf
}

// ---------------------------------------------------------------------------
// Loading.
// ---------------------------------------------------------------------------

// Load reads a snapshot, validates it end to end, rebuilds the scheme and
// relabels every view within the load budget. Any problem — bad magic,
// checksum mismatch, truncation, an invalid specification or view, an
// unsafe view, a label over the budget — yields an error.
func Load(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return LoadBytes(data)
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadBytes is Load over an in-memory snapshot. Every failure — from the
// bad-magic check down to a view's safety analysis and the load budget — is
// reported with an error wrapping faults.ErrCorruptSnapshot, so callers can
// classify "this artifact is bad" with errors.Is without inspecting
// messages.
func LoadBytes(data []byte) (*Snapshot, error) {
	snap, err := loadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", faults.ErrCorruptSnapshot, err)
	}
	return snap, nil
}

func loadBytes(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("labelstore: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("labelstore: bad magic %q (not a label snapshot, or an unsupported version)", data[:8])
	}
	sum := binary.LittleEndian.Uint32(data[8:])
	length := binary.LittleEndian.Uint64(data[12:])
	payload := data[headerSize:]
	if length != uint64(len(payload)) {
		return nil, fmt.Errorf("labelstore: header declares %d payload bytes, %d present", length, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("labelstore: checksum mismatch: header %08x, payload %08x", sum, got)
	}
	d := &decoder{data: payload, budget: loadBudget(len(data)) - decodeBytesPerInputByte*len(data)}
	snap, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("labelstore: %d trailing payload bytes after the last view", len(d.data)-d.pos)
	}
	return snap, nil
}

// loadBudget is the allocation a load of n snapshot bytes may make: a fixed
// base plus a linear share per input byte, the bound FuzzLoad asserts.
// Legitimate snapshots stay far inside it (see DESIGN.md, "Label
// snapshots").
func loadBudget(n int) int { return 1<<20 + 4096*n }

// decodeBytesPerInputByte is the share of the load budget set aside for
// decoding and validating the payload (the specification's JSON, the scheme,
// the views); what is left funds relabeling.
const decodeBytesPerInputByte = 1024

// startPortBytes is what core.RunLabeler.OnInit allocates per start-module
// port: one item record.
const startPortBytes = core.ItemRecordBytes

// decoder is a bounds-checked cursor over the payload. Every read verifies
// the remaining byte budget before allocating, so a corrupted length field
// fails fast instead of attempting a huge allocation. budget is what is left
// of the load budget for relabeling.
type decoder struct {
	data   []byte
	pos    int
	budget int
}

func (d *decoder) remaining() int { return len(d.data) - d.pos }

func (d *decoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("labelstore: truncated payload")
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("labelstore: truncated or malformed varint")
	}
	d.pos += n
	return v, nil
}

// count reads a collection size and rejects values that the remaining bytes
// cannot back at minBytes per element.
func (d *decoder) count(what string, minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()/minBytes) {
		return 0, fmt.Errorf("labelstore: %s claims %d elements but only %d bytes remain", what, v, d.remaining())
	}
	return int(v), nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("labelstore: byte block claims %d bytes but only %d remain", n, d.remaining())
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || n > uint64(d.remaining()) {
		return "", fmt.Errorf("labelstore: string claims %d bytes but only %d remain (limit %d)", n, d.remaining(), maxStringLen)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) matrix() (*boolmat.Matrix, error) {
	m, n, err := boolmat.DecodeMatrix(d.data[d.pos:])
	if err != nil {
		return nil, err
	}
	d.pos += n
	return m, nil
}

func (d *decoder) strings() ([]string, error) {
	n, err := d.count("string list", 1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (d *decoder) assignment() (workflow.DependencyAssignment, error) {
	n, err := d.count("dependency assignment", 3)
	if err != nil {
		return nil, err
	}
	a := make(workflow.DependencyAssignment, n)
	for i := 0; i < n; i++ {
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		if _, dup := a[name]; dup {
			return nil, fmt.Errorf("labelstore: duplicate dependency matrix for module %q", name)
		}
		m, err := d.matrix()
		if err != nil {
			return nil, err
		}
		a[name] = m
	}
	return a, nil
}

func (d *decoder) snapshot() (*Snapshot, error) {
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	if kind > 1 {
		return nil, fmt.Errorf("labelstore: unknown scheme kind %d", kind)
	}
	specBytes, err := d.bytes()
	if err != nil {
		return nil, err
	}
	spec := &workflow.Specification{}
	if err := spec.UnmarshalJSON(specBytes); err != nil {
		return nil, fmt.Errorf("labelstore: invalid specification: %w", err)
	}
	var scheme *core.Scheme
	if kind == 1 {
		scheme, err = core.NewSchemeBasic(spec)
	} else {
		scheme, err = core.NewScheme(spec)
	}
	if err != nil {
		return nil, fmt.Errorf("labelstore: rebuilding scheme: %w", err)
	}
	// Every session of the scheme labels one item per start-module port
	// before its first step, so a start module the budget cannot label is
	// refused here, views or not.
	start := spec.Grammar.Modules[spec.Grammar.Start]
	need := (float64(start.In) + float64(start.Out)) * float64(startPortBytes)
	if need > float64(d.budget) {
		return nil, fmt.Errorf("labelstore: start module %q declares %d+%d ports, whose labels need %.4g bytes, over the %d bytes left of the budget",
			spec.Grammar.Start, start.In, start.Out, need, d.budget)
	}
	d.budget -= int(need)

	numLabels, err := d.count("view list", 4)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Scheme: scheme}
	seen := map[string]bool{}
	for l := 0; l < numLabels; l++ {
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("labelstore: snapshot stores view %q twice", name)
		}
		seen[name] = true
		variant, err := d.byte()
		if err != nil {
			return nil, err
		}
		if variant > byte(core.VariantQueryEfficient) {
			return nil, fmt.Errorf("labelstore: view %q has unknown variant %d", name, variant)
		}
		include, err := d.strings()
		if err != nil {
			return nil, err
		}
		deps, err := d.assignment()
		if err != nil {
			return nil, err
		}
		v, err := view.New(name, spec, include, deps)
		if err != nil {
			return nil, fmt.Errorf("labelstore: invalid view %q: %w", name, err)
		}
		vl, err := scheme.LabelViewWithin(v, core.Variant(variant), &d.budget)
		if err != nil {
			return nil, fmt.Errorf("labelstore: view %q: %w", name, err)
		}
		snap.Labels = append(snap.Labels, vl)
	}
	return snap, nil
}

// toInt rejects values past a comfortable index range so downstream int
// arithmetic cannot overflow.
func toInt(v uint64) (int, error) {
	if v > 1<<30 {
		return 0, fmt.Errorf("labelstore: index %d out of range", v)
	}
	return int(v), nil
}
