package fvl_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/fvl"
)

func TestDurableSessionRoundTrip(t *testing.T) {
	svc, viewName := liveService(t)
	dir := filepath.Join(t.TempDir(), "sess")
	ctx := context.Background()

	sess, err := svc.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Recovery() != nil {
		t.Fatal("a fresh session reports recovery info")
	}
	if sess.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", sess.Dir(), dir)
	}
	drive(t, sess.Session, 20, 1)
	if err := sess.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := sess.LastCheckpoint()
	if ckpt != int(sess.Epoch()) {
		t.Fatalf("LastCheckpoint %d at epoch %d", ckpt, sess.Epoch())
	}
	drive(t, sess.Session, 30, 2)
	epoch := sess.Epoch()
	items := sess.Items()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := svc.ResumeDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := resumed.Recovery()
	if info == nil {
		t.Fatal("resumed session reports no recovery info")
	}
	if info.CheckpointStep != ckpt {
		t.Fatalf("recovered from checkpoint %d, want %d", info.CheckpointStep, ckpt)
	}
	if info.ReplayedSteps != int(epoch)-ckpt {
		t.Fatalf("replayed %d steps, want the tail of %d", info.ReplayedSteps, int(epoch)-ckpt)
	}
	if resumed.Epoch() != epoch || resumed.Items() != items {
		t.Fatalf("resumed at epoch %d with %d items, want %d and %d",
			resumed.Epoch(), resumed.Items(), epoch, items)
	}

	// The resumed session serves queries and keeps producing like any live
	// session.
	if _, _, err := resumed.DependsOnBatch(ctx, viewName, []fvl.ItemQuery{{From: 1, To: items}}); err != nil {
		t.Fatal(err)
	}
	drive(t, resumed.Session, epoch+5, 3)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDurableRefusesExistingSession(t *testing.T) {
	svc, _ := liveService(t)
	dir := filepath.Join(t.TempDir(), "sess")
	sess, err := svc.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, err := svc.OpenDurable(dir); err == nil {
		t.Fatal("OpenDurable over an existing session succeeded")
	}
}

func TestResumeDurableClassifiesDamage(t *testing.T) {
	svc, _ := liveService(t)
	dir := filepath.Join(t.TempDir(), "sess")
	sess, err := svc.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess.Session, 6, 4)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail: recovery truncates it and says so.
	seg := filepath.Join(dir, "seg-0000000000.fvlj")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x80}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	resumed, err := svc.ResumeDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Recovery().TornTruncated {
		t.Fatal("TornTruncated not reported")
	}
	resumed.Close()

	// A version-1 MANIFEST (no spec identity, no checkpoint checksum) is
	// refused as corrupt, never read by a second decoder.
	manifest := filepath.Join(dir, "MANIFEST")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	v1 := []byte{0x80, 0x08, 0, 0} // uvarint capacity 1024, no checkpoint, step 0
	frame := []byte("FVLMANI\x01")
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(v1))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(v1)))
	if err := os.WriteFile(manifest, append(frame, v1...), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ResumeDurable(dir); !errors.Is(err, fvl.ErrCorruptManifest) {
		t.Fatalf("version-1 manifest: want ErrCorruptManifest, got %v", err)
	}

	// A corrupt manifest fails with the public sentinel.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(manifest, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ResumeDurable(dir); !errors.Is(err, fvl.ErrCorruptManifest) {
		t.Fatalf("corrupt manifest: want ErrCorruptManifest, got %v", err)
	}
}

func TestSnapshotFileIsAtomic(t *testing.T) {
	svc, _ := liveService(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.fvl")
	if err := svc.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp residue next to the snapshot, and it loads clean.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "labels.fvl" {
		t.Fatalf("snapshot directory holds %v, want only labels.fvl", entries)
	}
	if _, err := fvl.OpenSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
}
