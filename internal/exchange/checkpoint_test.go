package exchange

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Algorithm:  "psra-hgadmm",
		Iter:       17,
		Rho:        1.5625,
		Epoch:      3,
		Dead:       []int32{2, 5},
		ZPrev:      []float64{0.25, -1, math.Copysign(0, -1)},
		TotalCal:   12.5,
		TotalComm:  3.25,
		TotalBytes: 1 << 40,
		Strategy:   []float64{42.5},
		Workers: []WorkerSnap{
			{Rank: 0, Clock: 9.75, CalTotal: 4.5,
				XA: []float64{1, 2}, YA: []float64{-3, 0.125}, ZDense: []float64{0, 7},
				ZIdx: []int32{1}, ZVal: []float64{7}},
			{Rank: 3, Clock: 1, CalTotal: 0.5,
				XA: []float64{0.1}, YA: []float64{0.2}, ZDense: []float64{0.3}},
		},
	}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed snapshot:\n in  %+v\n out %+v", s, got)
	}
}

func TestSnapshotBitExactFloats(t *testing.T) {
	// NaN payloads and -0 must survive: bit-exact resume depends on it.
	nan := math.Float64frombits(0x7ff8000000000001)
	s := &Snapshot{Algorithm: "a", ZPrev: []float64{nan, math.Copysign(0, -1)}}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.ZPrev {
		if math.Float64bits(got.ZPrev[i]) != math.Float64bits(s.ZPrev[i]) {
			t.Fatalf("ZPrev[%d]: bits %x != %x", i,
				math.Float64bits(got.ZPrev[i]), math.Float64bits(s.ZPrev[i]))
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	blob := EncodeSnapshot(&Snapshot{Algorithm: "a"})
	if _, err := DecodeSnapshot(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := DecodeSnapshot(append(blob, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[4] = 99 // version
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

// appendEncodeSnapshot is EncodeSnapshot as it stood before the exact-size
// encoder — a 64-byte buffer grown one AppendUint32/AppendUint64 at a time —
// kept verbatim as the byte-level reference for the PSCK v1 layout.
func appendEncodeSnapshot(s *Snapshot) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 64)
	f64s := func(v []float64) {
		buf = le.AppendUint32(buf, uint32(len(v)))
		for _, x := range v {
			buf = le.AppendUint64(buf, math.Float64bits(x))
		}
	}
	i32s := func(v []int32) {
		buf = le.AppendUint32(buf, uint32(len(v)))
		for _, x := range v {
			buf = le.AppendUint32(buf, uint32(x))
		}
	}
	buf = append(buf, snapMagic...)
	buf = le.AppendUint32(buf, snapVersion)
	buf = le.AppendUint32(buf, uint32(len(s.Algorithm)))
	buf = append(buf, s.Algorithm...)
	buf = le.AppendUint32(buf, uint32(s.Iter))
	buf = le.AppendUint64(buf, math.Float64bits(s.Rho))
	buf = le.AppendUint32(buf, uint32(s.Epoch))
	i32s(s.Dead)
	f64s(s.ZPrev)
	buf = le.AppendUint64(buf, math.Float64bits(s.TotalCal))
	buf = le.AppendUint64(buf, math.Float64bits(s.TotalComm))
	buf = le.AppendUint64(buf, uint64(s.TotalBytes))
	f64s(s.Strategy)
	buf = le.AppendUint32(buf, uint32(len(s.Workers)))
	for i := range s.Workers {
		ws := &s.Workers[i]
		buf = le.AppendUint32(buf, uint32(ws.Rank))
		buf = le.AppendUint64(buf, math.Float64bits(ws.Clock))
		buf = le.AppendUint64(buf, math.Float64bits(ws.CalTotal))
		f64s(ws.XA)
		f64s(ws.YA)
		f64s(ws.ZDense)
		i32s(ws.ZIdx)
		f64s(ws.ZVal)
	}
	return buf
}

// TestEncodeSnapshotExactSize pins the encoder's three promises — the blob
// is sized exactly, it is the only allocation, and its bytes are the old
// append-based encoder's — on the shapes the runtimes write and wrote:
// nothing at all, earlier psra-worker builds' one dense rank, and the
// engine's sparse-only ranks (plus the old engine layout, dense and sparse
// together).
func TestEncodeSnapshotExactSize(t *testing.T) {
	nan := math.Float64frombits(0xfff8dead0000beef)
	cases := map[string]*Snapshot{
		"empty": {},
		"dense-runtime": {
			Algorithm: "psra-hgadmm", Iter: 30, Rho: 1,
			Workers: []WorkerSnap{{Rank: 2, XA: []float64{1, 2, 3}, YA: []float64{-1, 0, nan}, ZDense: []float64{0, 0.5, math.Copysign(0, -1)}}},
		},
		"engine-sparse-only": fuzzSnapshotSparseOnly(),
		"engine-old-layout":  fuzzSnapshotSharded(),
		"every-field":        fuzzSnapshot(),
	}
	for name, s := range cases {
		got := EncodeSnapshot(s)
		if len(got) != cap(got) {
			t.Errorf("%s: len %d != cap %d", name, len(got), cap(got))
		}
		if want := appendEncodeSnapshot(s); !bytes.Equal(got, want) {
			t.Errorf("%s: bytes differ from the append-based encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		if n := testing.AllocsPerRun(20, func() { EncodeSnapshot(s) }); n != 1 {
			t.Errorf("%s: %v allocations per encode, want 1", name, n)
		}
		back, err := DecodeSnapshot(got)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(EncodeSnapshot(back), got) {
			t.Errorf("%s: decode → encode changed the bytes", name)
		}
	}
}
