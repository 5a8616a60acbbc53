package exchange

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"psrahgadmm/internal/checkpoint"
)

// fuzzSnapshot is a representative two-worker snapshot exercising every
// field shape the codec knows: dense and sparse consensus views, strategy
// scalars, a dead rank.
func fuzzSnapshot() *Snapshot {
	return &Snapshot{
		Algorithm:  "psra-hgadmm",
		Iter:       42,
		Rho:        1.5,
		Epoch:      3,
		Dead:       []int32{1},
		ZPrev:      []float64{0.5, -0.25, 0},
		TotalCal:   12.5,
		TotalComm:  3.25,
		TotalBytes: 4096,
		Strategy:   []float64{7.5},
		Workers: []WorkerSnap{
			{Rank: 0, Clock: 10.5, CalTotal: 8, XA: []float64{1, 2, 3}, YA: []float64{0.1, 0.2, 0.3}, ZDense: []float64{0.5, -0.25, 0}},
			{Rank: 2, Clock: 11, CalTotal: 9, XA: []float64{4, 5, 6}, YA: []float64{0.4, 0.5, 0.6}, ZIdx: []int32{0, 2}, ZVal: []float64{0.5, 0}},
		},
	}
}

// fuzzSnapshotSharded mirrors a block-sharded run's snapshot shape: each
// rank's ZDense is its compact subscribed-block concatenation — lengths
// differ per rank and from the global dimension — alongside a sparse view.
// The PSCK format is identical; only the slice lengths exercise the
// decoder differently, which is exactly what the fuzz corpus should pin.
func fuzzSnapshotSharded() *Snapshot {
	return &Snapshot{
		Algorithm:  "psra-hgadmm-sharded",
		Iter:       7,
		Rho:        0.5,
		Epoch:      0,
		ZPrev:      []float64{1, 0, -1, 2, 0, 3},
		TotalCal:   1.5,
		TotalComm:  0.75,
		TotalBytes: 512,
		Workers: []WorkerSnap{
			{Rank: 0, Clock: 2, CalTotal: 1, XA: []float64{1}, YA: []float64{0.1}, ZDense: []float64{1, 0}, ZIdx: []int32{0}, ZVal: []float64{1}},
			{Rank: 1, Clock: 2.5, CalTotal: 1.5, XA: []float64{2, 3}, YA: []float64{0.2, 0.3}, ZDense: []float64{-1, 2, 0, 3}, ZIdx: []int32{2, 3, 5}, ZVal: []float64{-1, 2, 3}},
		},
	}
}

// fuzzSnapshotSparseOnly is the shape the engine writes: z travels once, as
// the sparse view in global coordinates, and every rank's ZDense is the
// zero-length vector — valid PSCK v1, and a different path through the
// decoder's "n == 0" returns than a populated dense field.
func fuzzSnapshotSparseOnly() *Snapshot {
	s := fuzzSnapshotSharded()
	for i := range s.Workers {
		s.Workers[i].ZDense = nil
	}
	s.Workers = append(s.Workers, WorkerSnap{Rank: 2, Clock: 3, CalTotal: 2, XA: []float64{4}, YA: []float64{0.4}})
	return s
}

// FuzzPSCKDecode drives DecodeSnapshot with arbitrary bytes. Invariants:
// never panic; corrupt length prefixes must error without attempting an
// allocation beyond the bytes present; and any blob that decodes must
// re-encode to the identical bytes (the codec is canonical).
func FuzzPSCKDecode(f *testing.F) {
	full := EncodeSnapshot(fuzzSnapshot())
	f.Add(append([]byte(nil), full...))
	for _, cut := range []int{0, 3, 4, 8, len(full) / 2, len(full) - 1} {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	sharded := EncodeSnapshot(fuzzSnapshotSharded())
	f.Add(append([]byte(nil), sharded...))
	for _, cut := range []int{len(sharded) / 3, len(sharded) - 2} {
		f.Add(append([]byte(nil), sharded[:cut]...))
	}
	sparseOnly := EncodeSnapshot(fuzzSnapshotSparseOnly())
	f.Add(append([]byte(nil), sparseOnly...))
	f.Add(append([]byte(nil), sparseOnly[:len(sparseOnly)-5]...))
	// Valid prefix with a huge vector-length prefix appended.
	f.Add(append(append([]byte(nil), full[:8]...), 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSnapshot(s), data) {
			t.Fatal("re-encode diverged from accepted snapshot bytes")
		}
	})
}

// TestSnapshotTruncationRejected cuts a valid snapshot at every byte
// boundary: no truncation may decode successfully, and none may panic.
// Both the replicated and the sharded worker shapes are exercised.
func TestSnapshotTruncationRejected(t *testing.T) {
	for _, snap := range []*Snapshot{fuzzSnapshot(), fuzzSnapshotSharded(), fuzzSnapshotSparseOnly()} {
		full := EncodeSnapshot(snap)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeSnapshot(full[:cut]); err == nil {
				t.Fatalf("%s: truncation at byte %d of %d decoded successfully", snap.Algorithm, cut, len(full))
			}
		}
	}
}

// TestSnapshotCorruptLengthBounded pins the over-allocation guard: a
// corrupt u32 length prefix claiming ~2^31 elements must produce a decode
// error, not a multi-gigabyte make.
func TestSnapshotCorruptLengthBounded(t *testing.T) {
	full := EncodeSnapshot(fuzzSnapshot())
	// The Dead vector's length prefix sits right after magic+version+
	// Algorithm(str)+Iter+Rho+Epoch.
	off := 4 + 4 + (4 + len("psra-hgadmm")) + 4 + 8 + 4
	for _, evil := range []uint32{1 << 30, 0xffffffff} {
		mut := append([]byte(nil), full...)
		mut[off] = byte(evil)
		mut[off+1] = byte(evil >> 8)
		mut[off+2] = byte(evil >> 16)
		mut[off+3] = byte(evil >> 24)
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("length prefix %#x accepted", evil)
		}
	}
}

// TestTruncatedCheckpointRejectedOnLoad is the durability contract end to
// end: a PSCK blob saved through the fsynced DirStore, then truncated on
// disk (a torn write the rename discipline is supposed to prevent, or
// media damage), must be rejected by Load itself — the truncation took the
// integrity trailer with it — so a resumed run fails loudly instead of
// training from garbage. The bytes that are left must not decode either.
func TestTruncatedCheckpointRejectedOnLoad(t *testing.T) {
	store, err := checkpoint.NewDirStore(t.TempDir(), "rank-0.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	full := EncodeSnapshot(fuzzSnapshot())
	if err := store.Save(full); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(store.Path(), int64(len(full)/2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Load(); ok || !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("load after truncate: ok=%v err=%v, want ErrChecksum", ok, err)
	}
	if _, err := DecodeSnapshot(full[:len(full)/2]); err == nil {
		t.Fatal("truncated checkpoint decoded successfully")
	}
}
