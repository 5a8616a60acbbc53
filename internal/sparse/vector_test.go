package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psrahgadmm/internal/vec"
)

func randSparse(r *rand.Rand, dim int, density float64) *Vector {
	v := NewVector(dim, 0)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Append(int32(i), r.NormFloat64())
		}
	}
	return v
}

func TestFromDenseRoundTrip(t *testing.T) {
	d := []float64{0, 1.5, 0, -2, 0, 0, 3}
	v := FromDense(d)
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", v.NNZ())
	}
	if !vec.Equal(v.ToDense(), d) {
		t.Fatalf("round trip mismatch: %v", v.ToDense())
	}
}

func TestFromMapSorts(t *testing.T) {
	v := FromMap(10, map[int32]float64{7: 1, 2: 2, 5: 3, 9: 0})
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	want := []int32{2, 5, 7}
	if len(v.Index) != 3 {
		t.Fatalf("NNZ = %d, want 3 (zero dropped)", v.NNZ())
	}
	for i, idx := range want {
		if v.Index[i] != idx {
			t.Fatalf("Index = %v, want %v", v.Index, want)
		}
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	v := NewVector(10, 2)
	v.Append(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing Append")
		}
	}()
	v.Append(3, 2)
}

func TestAppendIgnoresZero(t *testing.T) {
	v := NewVector(10, 1)
	v.Append(3, 0)
	if v.NNZ() != 0 {
		t.Fatal("Append(,-0) stored a zero")
	}
}

func TestAddIntoDense(t *testing.T) {
	v := FromDense([]float64{0, 2, 0, 3})
	dst := []float64{1, 1, 1, 1}
	v.AddIntoDense(dst, 2)
	if !vec.Equal(dst, []float64{1, 5, 1, 7}) {
		t.Fatalf("AddIntoDense = %v", dst)
	}
}

func TestScaleZeroEmpties(t *testing.T) {
	v := FromDense([]float64{1, 2, 3})
	v.Scale(0)
	if v.NNZ() != 0 {
		t.Fatal("Scale(0) left stored zeros")
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceRebase(t *testing.T) {
	v := FromDense([]float64{1, 0, 2, 0, 3, 4, 0, 5})
	s := v.Slice(2, 6)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(s.ToDense(), []float64{2, 0, 3, 4}) {
		t.Fatalf("Slice = %v", s.ToDense())
	}
	// Empty slice bounds.
	e := v.Slice(3, 3)
	if e.Dim != 0 || e.NNZ() != 0 {
		t.Fatalf("empty Slice = %+v", e)
	}
}

func TestMergeAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		dim := r.Intn(80) + 1
		a := randSparse(r, dim, 0.3)
		b := randSparse(r, dim, 0.3)
		m := MergeInto(nil, a, b)
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
		want := a.ToDense()
		vec.AddInto(want, b.ToDense())
		if !vec.Equal(m.ToDense(), want) {
			t.Fatalf("Merge mismatch")
		}
	}
}

func TestMergeCancellationDropsZeros(t *testing.T) {
	a := FromDense([]float64{1, 2, 0})
	b := FromDense([]float64{-1, 0, 3})
	m := MergeInto(nil, a, b)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("cancelled entry not dropped: nnz=%d", m.NNZ())
	}
}

func TestConcatInvertsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		dim := r.Intn(120) + 1
		p := r.Intn(6) + 1
		v := randSparse(r, dim, 0.25)
		chunks := vec.Split(dim, p)
		blocks := make([]*Vector, p)
		offsets := make([]int, p)
		for i, c := range chunks {
			blocks[i] = v.Slice(c.Lo, c.Hi)
			offsets[i] = c.Lo
		}
		back := ConcatInto(nil, dim, offsets, blocks)
		if err := back.Check(); err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(back.ToDense(), v.ToDense()) {
			t.Fatal("ConcatInto of the Slice blocks of v != v")
		}
	}
}

func TestConcatRejectsOverlap(t *testing.T) {
	a := FromDense([]float64{1, 2})
	b := FromDense([]float64{3, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping Concat")
		}
	}()
	ConcatInto(nil, 3, []int{0, 1}, []*Vector{a, b})
}

func TestAccumulatorMatchesDenseSum(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	dim := 64
	acc := NewAccumulator(dim)
	want := make([]float64, dim)
	for i := 0; i < 20; i++ {
		v := randSparse(r, dim, 0.2)
		acc.Add(v)
		vec.AddInto(want, v.ToDense())
	}
	got := acc.Sum()
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if !vec.WithinTol(got.ToDense(), want, 1e-12) {
		t.Fatal("Accumulator sum mismatch")
	}
	// Reuse after Sum must start from zero.
	v := FromDense(make([]float64, dim))
	acc.Add(v)
	second := acc.Sum()
	if second.NNZ() != 0 {
		t.Fatal("Accumulator not reset after Sum")
	}
}

// Property: Merge is commutative and preserves invariants.
func TestMergeCommutative(t *testing.T) {
	f := func(seedA, seedB int64, dimRaw uint8) bool {
		dim := int(dimRaw%60) + 1
		a := randSparse(rand.New(rand.NewSource(seedA)), dim, 0.3)
		b := randSparse(rand.New(rand.NewSource(seedB)), dim, 0.3)
		ab := MergeInto(nil, a, b)
		ba := MergeInto(nil, b, a)
		if ab.Check() != nil || ba.Check() != nil {
			return false
		}
		return vec.Equal(ab.ToDense(), ba.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing covers and partitions exactly — total NNZ preserved.
func TestSlicePartitionPreservesNNZ(t *testing.T) {
	f := func(seed int64, dimRaw, pRaw uint8) bool {
		dim := int(dimRaw%100) + 1
		p := int(pRaw%8) + 1
		v := randSparse(rand.New(rand.NewSource(seed)), dim, 0.3)
		total := 0
		for _, c := range vec.Split(dim, p) {
			total += v.Slice(c.Lo, c.Hi).NNZ()
		}
		return total == v.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	x := randSparse(r, 1<<16, 0.05)
	y := randSparse(r, 1<<16, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MergeInto(nil, x, y)
	}
}

func BenchmarkAccumulator(b *testing.B) {
	for _, c := range []struct {
		name        string
		dim, inputs int
		density     float64
	}{
		{"dim65536-16x1300", 1 << 16, 16, 0.02},
		// One PSR reduce of engine-news20-8: the model's dimension, eight
		// ranks' ≈ 1 400-entry contributions.
		{"dim27103-8x1400", 27103, 8, 1400.0 / 27103},
	} {
		r := rand.New(rand.NewSource(15))
		vs := make([]*Vector, c.inputs)
		entries := 0
		for i := range vs {
			vs[i] = randSparse(r, c.dim, c.density)
			entries += vs[i].NNZ()
		}
		acc := NewAccumulator(c.dim)
		var out *Vector
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range vs {
					acc.Add(v)
				}
				out = acc.SumInto(out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}
