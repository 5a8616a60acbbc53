package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if buf.Len() != EncodedBytes(&m) {
		t.Fatalf("EncodedBytes = %d, wrote %d", EncodedBytes(&m), buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Decode left %d trailing bytes", buf.Len())
	}
	return got
}

func TestControlRoundTrip(t *testing.T) {
	m := Control(7, 1, -2, 1<<40)
	m.From = 3
	got := roundTrip(t, m)
	if got.Kind != KindControl || got.Tag != 7 || got.From != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Ints) != 3 || got.Ints[0] != 1 || got.Ints[1] != -2 || got.Ints[2] != 1<<40 {
		t.Fatalf("Ints = %v", got.Ints)
	}
}

func TestControlEmpty(t *testing.T) {
	got := roundTrip(t, Control(0))
	if len(got.Ints) != 0 {
		t.Fatalf("Ints = %v, want empty", got.Ints)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	x := []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	got := roundTrip(t, DenseMsg(-5, x))
	if got.Tag != -5 {
		t.Fatalf("Tag = %d", got.Tag)
	}
	if !vec.Equal(got.Dense, x) {
		t.Fatalf("Dense = %v", got.Dense)
	}
}

func TestDenseNaNRoundTrip(t *testing.T) {
	got := roundTrip(t, DenseMsg(1, []float64{math.NaN()}))
	if !math.IsNaN(got.Dense[0]) {
		t.Fatalf("NaN lost: %v", got.Dense[0])
	}
}

func TestSparseRoundTrip(t *testing.T) {
	sv := sparse.FromDense([]float64{0, 2.5, 0, 0, -1, 0, 1e-300})
	got := roundTrip(t, SparseMsg(9, sv))
	if got.Sparse == nil {
		t.Fatal("nil sparse payload")
	}
	if got.Sparse.Dim != sv.Dim {
		t.Fatalf("Dim = %d", got.Sparse.Dim)
	}
	if !vec.Equal(got.Sparse.ToDense(), sv.ToDense()) {
		t.Fatal("sparse payload mismatch")
	}
}

// TestDecodeIntoAllocFree: a TCP connection reader decodes each sparse
// frame into a vector from its pool and reuses its frame scratch. On a
// frame the size of a mesh-tcp-8 contribution, a warm decode allocates
// nothing.
func TestDecodeIntoAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := rand.New(rand.NewSource(8))
	sv := sparse.NewVector(27103, 0)
	for i := int32(0); i < 27103; i++ {
		if r.Float64() < 0.66 {
			sv.Append(i, r.NormFloat64())
		}
	}
	frame, err := AppendMessage(nil, SparseMsg(7, sv))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	var scratch []byte
	reuse := new(sparse.Vector)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(frame)
		var m Message
		var err error
		if m, scratch, err = DecodeInto(rd, scratch, reuse); err != nil || m.Sparse != reuse {
			t.Fatalf("DecodeInto = %p, %v; want the reuse vector %p", m.Sparse, err, reuse)
		}
	})
	if !vec.Equal(reuse.ToDense(), sv.ToDense()) {
		t.Fatal("sparse payload mismatch")
	}
	if allocs != 0 {
		t.Fatalf("warm DecodeInto allocates %v objects per frame, want 0", allocs)
	}
}

func TestSparseNilPayload(t *testing.T) {
	got := roundTrip(t, SparseMsg(1, nil))
	if got.Sparse == nil || got.Sparse.NNZ() != 0 {
		t.Fatalf("nil sparse should decode as empty, got %+v", got.Sparse)
	}
}

func TestPayloadBytesMatchesPaperCost(t *testing.T) {
	// θ_s per element = index (4) + value (8) = 12 bytes.
	sv := sparse.FromDense([]float64{1, 0, 2, 0, 3})
	want := 8 + 3*SparseEntryBytes
	if got := PayloadBytes(SparseMsg(0, sv)); got != want {
		t.Fatalf("PayloadBytes = %d, want %d", got, want)
	}
}

func TestDecodeEOFAtBoundary(t *testing.T) {
	_, err := Decode(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestDecodeTruncatedHeader(t *testing.T) {
	_, err := Decode(bytes.NewReader([]byte{magic0, magic1, version2}))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, DenseMsg(1, []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	_, err := Decode(bytes.NewReader(trunc))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Control(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] = 'X'
	_, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Control(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[2] = 99
	_, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// reseal recomputes a tampered frame's CRC trailer in place, so tampering
// tests reach the structural validator instead of tripping the checksum.
func reseal(b []byte) {
	body := b[:len(b)-crcBytes]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Update(0, castagnoli, body))
}

func TestDecodeBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Control(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[3] = 42
	reseal(b)
	_, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeCorruptSparseIndices(t *testing.T) {
	sv := sparse.FromDense([]float64{1, 2})
	var buf bytes.Buffer
	if err := Encode(&buf, SparseMsg(1, sv)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Overwrite second entry's index (offset: 16 hdr + 8 dims + 12) to equal
	// the first entry's index, violating strict ordering.
	copy(b[16+8+12:16+8+16], b[16+8:16+8+4])
	reseal(b)
	_, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestEncodeUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Message{Kind: Kind(0)}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Control(1, 10),
		DenseMsg(2, []float64{1, 2}),
		SparseMsg(3, sparse.FromDense([]float64{0, 5})),
	}
	for _, m := range msgs {
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Tag != want.Tag {
			t.Fatalf("frame %d: %+v", i, got)
		}
	}
	if _, err := Decode(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindControl.String() != "control" || KindDense.String() != "dense" ||
		KindSparse.String() != "sparse" || Kind(9).String() != "Kind(9)" {
		t.Fatal("Kind.String mismatch")
	}
}

// Property: any control message round-trips.
func TestControlRoundTripProperty(t *testing.T) {
	f := func(tag int32, ints []int64) bool {
		var buf bytes.Buffer
		if err := Encode(&buf, Control(tag, ints...)); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Tag != tag || len(got.Ints) != len(ints) {
			return false
		}
		for i := range ints {
			if got.Ints[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random sparse vectors round-trip bit-exactly.
func TestSparseRoundTripProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw%100) + 1
		r := rand.New(rand.NewSource(seed))
		sv := sparse.NewVector(dim, 0)
		for i := 0; i < dim; i++ {
			if r.Float64() < 0.3 {
				sv.Append(int32(i), r.NormFloat64())
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, SparseMsg(int32(seed), sv)); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Sparse.Dim != dim {
			return false
		}
		return vec.Equal(got.Sparse.ToDense(), sv.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDense(b *testing.B) {
	x := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i)
	}
	m := DenseMsg(1, x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(EncodedBytes(&m))
		_ = Encode(&buf, m)
	}
}

func BenchmarkDecodeSparse(b *testing.B) {
	r := rand.New(rand.NewSource(30))
	sv := sparse.NewVector(1<<16, 0)
	for i := 0; i < 1<<16; i++ {
		if r.Float64() < 0.05 {
			sv.Append(int32(i), r.NormFloat64())
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, SparseMsg(1, sv)); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
