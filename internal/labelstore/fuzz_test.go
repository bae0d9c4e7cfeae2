package labelstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/labelstore"
	"repro/internal/view"
	"repro/internal/workloads"
)

// FuzzLoad is the corruption target for label snapshots. The fuzz input is
// the payload: the target frames it with FVLSNAP\x02, a correct CRC and the
// length, so mutations reach the specification, the views and relabeling
// instead of bouncing off the checksum. The seeds are snapshots of all
// three variants of the paper example (default and security views), a
// BioAID view, the basic scheme and an empty payload. The contract: no
// panic; allocation at or under allocBudget (1 MiB + 4096 B per input
// byte), even for a few bytes that declare huge port counts or a recursion
// with a long period; every rejection wraps ErrCorruptSnapshot; every
// accepted snapshot answers queries.
func FuzzLoad(f *testing.F) {
	addSnapshot := func(scheme *core.Scheme, labels ...*core.ViewLabel) {
		var buf bytes.Buffer
		if err := labelstore.Save(&buf, scheme, labels); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[frameHeader:])
	}
	label := func(scheme *core.Scheme, v *view.View, variant core.Variant) *core.ViewLabel {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			f.Fatal(err)
		}
		return vl
	}

	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		f.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		f.Fatal(err)
	}
	for _, variant := range allVariants {
		addSnapshot(scheme, label(scheme, view.Default(spec), variant), label(scheme, sec, variant))
	}

	bioSpec := workloads.BioAID()
	bioScheme, err := core.NewScheme(bioSpec)
	if err != nil {
		f.Fatal(err)
	}
	bioView, err := workloads.RandomView(bioSpec, workloads.ViewOptions{
		Name: "grey-box", Composites: 6, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		f.Fatal(err)
	}
	addSnapshot(bioScheme, label(bioScheme, bioView, core.VariantQueryEfficient))

	basicSpec := workloads.Figure10Example()
	basicScheme, err := core.NewSchemeBasic(basicSpec)
	if err != nil {
		f.Fatal(err)
	}
	addSnapshot(basicScheme, label(basicScheme, view.Default(basicSpec), core.VariantQueryEfficient))
	addSnapshot(scheme)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		data := framePayload("FVLSNAP\x02", payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := labelstore.LoadBytes(data)
		runtime.ReadMemStats(&after)
		if grew, budget := after.TotalAlloc-before.TotalAlloc, allocBudget(len(data)); grew > budget {
			t.Fatalf("loading %d bytes allocated %d bytes, budget %d", len(data), grew, budget)
		}
		if err != nil {
			if !errors.Is(err, faults.ErrCorruptSnapshot) {
				t.Fatalf("unclassified rejection: %v", err)
			}
			return
		}
		// An accepted snapshot must be servable: every label answers a
		// trivially malformed query (the empty data label) without a panic.
		bad := core.DataLabel{}
		for _, vl := range snap.Labels {
			_, _ = vl.DependsOn(bad, bad)
		}
	})
}

// allocBudget is the allocation a snapshot load of n bytes may make: a fixed
// base plus a linear share per input byte, which funds decoding and the
// relabeled views.
func allocBudget(n int) uint64 {
	return 1<<20 + 4096*uint64(n)
}

// frameHeader is the size of the snapshot framing: magic, CRC-32 and
// payload length.
const frameHeader = 8 + 4 + 8

// framePayload wraps a payload in the snapshot framing under the given
// magic, with a correct CRC and length, so an edited payload reaches the
// payload decoder instead of failing the checksum.
func framePayload(magic string, payload []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(out[12:], uint64(len(payload)))
	return append(out, payload...)
}
