package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, "rank-0.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(); err != nil || ok {
		t.Fatalf("fresh store: ok=%v err=%v", ok, err)
	}
	if err := s.Save([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("second")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Load()
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(data, []byte("second")) {
		t.Fatalf("got %q", data)
	}
	// No temp litter after successful saves.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "rank-0.ckpt" {
		t.Fatalf("unexpected directory contents: %v", ents)
	}
}

func TestDirStoreCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	s, err := NewDirStore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := s.Path(); got != filepath.Join(dir, "checkpoint.bin") {
		t.Fatalf("default name path: %s", got)
	}
}

// TestDirStoreRejectsCorruptFile flips one bit of the committed snapshot
// file at every byte position in turn: each flip must surface as a typed
// ErrChecksum (the trailer protects itself too — a flip in the magic
// degrades to "legacy unverified file", which is why flips there must
// corrupt the CRC match instead... every position is exercised to prove no
// flip loads wrong bytes silently).
func TestDirStoreRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, "rank-0.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("snapshot payload with enough bytes to matter")
	if err := s.Save(payload); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(clean); pos++ {
		corrupt := append([]byte(nil), clean...)
		corrupt[pos] ^= 0x10
		if err := os.WriteFile(s.Path(), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		data, ok, err := s.Load()
		if err == nil && ok && bytes.Equal(data, payload) {
			t.Fatalf("flip at byte %d loaded the original payload without an error — impossible", pos)
		}
		if err == nil && ok && !bytes.Equal(data, payload) {
			// A flip inside the trailer magic demotes the file to "legacy,
			// unverified", returning payload+brokenTrailer — detectable by
			// the caller's decoder, but the common body/CRC flips must be
			// caught HERE, typed.
			if pos < len(clean)-sumTrailerLen || pos >= len(clean)-4 {
				t.Fatalf("flip at byte %d (outside trailer magic) loaded silently", pos)
			}
			continue
		}
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: error not typed ErrChecksum: %v", pos, err)
		}
	}
}

// TestDirStoreRejectsLegacyFile: a pre-trailer snapshot (raw blob, no
// magic) is refused with the same typed error as a corrupt one — nothing is
// restored unverified.
func TestDirStoreRejectsLegacyFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, "old.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte("written by a version that predates PSCKSUM1")
	if err := os.WriteFile(s.Path(), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(); ok || !errors.Is(err, ErrChecksum) {
		t.Fatalf("legacy load: ok=%v err=%v, want ErrChecksum", ok, err)
	}
}

// TestDirStoreSaveLayout pins what Save puts on disk — blob ‖ "PSCKSUM1" ‖
// little-endian CRC32C(blob), the layout every earlier build wrote and
// reads — and that Save only reads the caller's slice: it writes neither
// inside it nor into the spare capacity behind it (an append-in-place
// trailer would), it leaves no temp file, and what was saved does not
// follow later writes to the slice.
func TestDirStoreSaveLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, "engine.psck")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 4096, 1<<20 + 3} {
		backing := make([]byte, n+64)
		for i := range backing {
			backing[i] = byte(i*131 + n)
		}
		before := append([]byte(nil), backing...)
		blob := backing[:n] // 64 bytes of spare capacity behind it
		if err := s.Save(blob); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(backing, before) {
			t.Fatalf("n=%d: Save wrote to the caller's slice or its spare capacity", n)
		}
		want := append(append([]byte(nil), blob...), "PSCKSUM1"...)
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)))
		file, err := os.ReadFile(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, want) {
			t.Fatalf("n=%d: file is not blob ‖ PSCKSUM1 ‖ crc32c(blob) (%d bytes, want %d)", n, len(file), len(want))
		}
		for i := range backing {
			backing[i] ^= 0xff
		}
		got, ok, err := s.Load()
		if err != nil || !ok || !bytes.Equal(got, before[:n]) {
			t.Fatalf("n=%d: load after the caller reused its slice: ok=%v err=%v", n, ok, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("n=%d: %d directory entries after Save, want only the snapshot", n, len(entries))
		}
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok, _ := s.Load(); ok {
		t.Fatal("empty store reported data")
	}
	blob := []byte{1, 2, 3}
	if err := s.Save(blob); err != nil {
		t.Fatal(err)
	}
	blob[0] = 9 // caller mutation must not leak in
	data, ok, _ := s.Load()
	if !ok || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("got %v ok=%v", data, ok)
	}
	data[1] = 9 // nor out
	again, _, _ := s.Load()
	if !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("aliasing: %v", again)
	}
	if s.Saves() != 1 {
		t.Fatalf("saves = %d", s.Saves())
	}
}
