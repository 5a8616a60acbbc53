package sparse

import (
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, dim, nnz int) *Vector {
	m := make(map[int32]float64, nnz)
	for len(m) < nnz {
		m[int32(rng.Intn(dim))] = rng.NormFloat64()
	}
	return FromMap(dim, m)
}

func equalVec(a, b *Vector) bool {
	if a.Dim != b.Dim || len(a.Index) != len(b.Index) {
		return false
	}
	for k := range a.Index {
		if a.Index[k] != b.Index[k] || a.Value[k] != b.Value[k] {
			return false
		}
	}
	return true
}

// TestIntoMatchesAllocating checks every XxxInto against its allocating
// counterpart on random inputs, reusing one destination across rounds.
func TestIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dim := 300
	dstSlice := NewVector(0, 0)
	dstMerge := NewVector(0, 0)
	dstConcat := NewVector(0, 0)
	dstFrom := NewVector(0, 0)
	dense := make([]float64, 0)
	for round := 0; round < 50; round++ {
		a := randVec(rng, dim, rng.Intn(60))
		b := randVec(rng, dim, rng.Intn(60))

		lo, hi := rng.Intn(dim), rng.Intn(dim)
		if lo > hi {
			lo, hi = hi, lo
		}
		if !equalVec(a.Slice(lo, hi), a.SliceInto(dstSlice, lo, hi)) {
			t.Fatalf("round %d: SliceInto mismatch", round)
		}
		if !equalVec(MergeInto(nil, a, b), MergeInto(dstMerge, a, b)) {
			t.Fatalf("round %d: MergeInto mismatch", round)
		}
		blocks := []*Vector{a.Slice(0, 100), a.Slice(100, 180), a.Slice(180, dim)}
		offsets := []int{0, 100, 180}
		got := ConcatInto(dstConcat, dim, offsets, blocks)
		if !equalVec(ConcatInto(nil, dim, offsets, blocks), got) {
			t.Fatalf("round %d: ConcatInto mismatch", round)
		}
		if !equalVec(a, got) {
			t.Fatalf("round %d: ConcatInto of the Slice blocks did not round-trip", round)
		}

		x := a.ToDense()
		dense = a.ToDenseInto(dense)
		for i := range x {
			if x[i] != dense[i] {
				t.Fatalf("round %d: ToDenseInto mismatch at %d", round, i)
			}
		}
		if !equalVec(FromDense(x), FromDenseInto(dstFrom, x)) {
			t.Fatalf("round %d: FromDenseInto mismatch", round)
		}
	}
}

func TestReuseFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randVec(rng, 500, 40)
	v := NewVector(0, 0)
	v.ReuseFrom(src)
	if !equalVec(v, src) {
		t.Fatal("ReuseFrom copy mismatch")
	}
	// Mutating the copy must not touch the source.
	v.Value[0] = 1e9
	if src.Value[0] == 1e9 {
		t.Fatal("ReuseFrom shares storage with source")
	}
}

func TestSumInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	acc := NewAccumulator(200)
	dst := NewVector(0, 0)
	for round := 0; round < 20; round++ {
		vs := []*Vector{randVec(rng, 200, 30), randVec(rng, 200, 30), randVec(rng, 200, 30)}
		want := NewAccumulator(200)
		for _, v := range vs {
			acc.Add(v)
			want.Add(v)
		}
		got := acc.SumInto(dst)
		if !equalVec(want.Sum(), got) {
			t.Fatalf("round %d: SumInto mismatch", round)
		}
	}
}

func TestAccumulatorReset(t *testing.T) {
	acc := NewAccumulator(100)
	v := FromMap(100, map[int32]float64{5: 1, 50: 2})
	acc.Add(v)
	acc.Reset(100)
	if got := acc.Sum(); got.NNZ() != 0 {
		t.Fatalf("Reset left %d residues", got.NNZ())
	}
	// Shrink then regrow within capacity: tail must come back clean.
	acc.Add(v)
	acc.Reset(10)
	acc.Reset(100)
	if got := acc.Sum(); got.NNZ() != 0 {
		t.Fatalf("re-dimension left %d residues", got.NNZ())
	}
	acc.Reset(250) // forces regrow
	acc.Add(FromMap(250, map[int32]float64{240: 3}))
	s := acc.Sum()
	if s.Dim != 250 || s.NNZ() != 1 || s.Value[0] != 3 {
		t.Fatalf("post-grow Sum wrong: dim=%d nnz=%d", s.Dim, s.NNZ())
	}
}

// TestSteadyStateAllocs pins the reuse contract: once destinations are
// warm, the Into APIs do not touch the heap.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randVec(rng, 400, 50)
	b := randVec(rng, 400, 50)
	dst := NewVector(400, 128)
	dense := make([]float64, 400)
	acc := NewAccumulator(400)
	sum := NewVector(400, 128)

	avg := testing.AllocsPerRun(100, func() {
		MergeInto(dst, a, b)
		dense = dst.ToDenseInto(dense)
		a.SliceInto(dst, 100, 300)
		acc.Add(a)
		acc.Add(b)
		acc.SumInto(sum)
	})
	if avg > 0 {
		t.Errorf("warmed Into cycle allocates %.1f times, want 0", avg)
	}
}
