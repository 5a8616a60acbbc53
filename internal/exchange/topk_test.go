package exchange

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/sparse"
)

// randVector builds a sparse vector of dimension dim with roughly nnz
// nonzeros drawn from a normal distribution.
func randVector(r *rand.Rand, dim, nnz int) *sparse.Vector {
	m := make(map[int32]float64, nnz)
	for len(m) < nnz {
		m[int32(r.Intn(dim))] = r.NormFloat64()
	}
	return sparse.FromMap(dim, m)
}

// mergeWithResidual returns v + st's residual, treating the not-yet-sized
// residual (before the first Encode) as empty.
func mergeWithResidual(v *sparse.Vector, st *State) *sparse.Vector {
	if st.Residual().Dim != v.Dim {
		return v.Clone()
	}
	return sparse.MergeInto(nil, v, st.Residual())
}

// topKSupport returns the index set a deterministic top-k of v would keep:
// |value| strictly above the k-th largest magnitude, ties broken toward
// lower indices.
func topKSupport(v *sparse.Vector, k int) map[int32]bool {
	if v.NNZ() <= k {
		out := make(map[int32]bool, v.NNZ())
		for _, i := range v.Index {
			out[i] = true
		}
		return out
	}
	abs := make([]float64, v.NNZ())
	for i, val := range v.Value {
		abs[i] = math.Abs(val)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
	theta := abs[k-1]
	gt := 0
	for _, val := range v.Value {
		if math.Abs(val) > theta {
			gt++
		}
	}
	ties := k - gt
	out := make(map[int32]bool, k)
	for i, idx := range v.Index {
		a := math.Abs(v.Value[i])
		if a > theta {
			out[idx] = true
		} else if a == theta && ties > 0 {
			out[idx] = true
			ties--
		}
	}
	return out
}

// TestTopKRoundTripProperty is the selection contract under random inputs:
// the encoded support is exactly the deterministic top-k of (v + residual),
// nnz never exceeds k, the structural invariants hold, and — for the exact
// kind with the undamped accumulator — encoded + residual reconstructs the
// merged input bit-for-bit (nothing the wire drops is ever lost).
func TestTopKRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const dim = 512
	st := NewState(TopK, 0)
	st.KMin, st.KMax, st.K = 8, 64, 32
	st.Decay = 1 // exact conservation needs the undamped residual
	for trial := 0; trial < 200; trial++ {
		v := randVector(r, dim, 8+r.Intn(120))
		// merged = v + residual BEFORE encoding mutates either.
		merged := mergeWithResidual(v, st)
		want := topKSupport(merged, st.K)

		st.Encode(v)
		if err := v.Check(); err != nil {
			t.Fatalf("trial %d: encoded vector invalid: %v", trial, err)
		}
		if err := st.Residual().Check(); err != nil {
			t.Fatalf("trial %d: residual invalid: %v", trial, err)
		}
		if v.NNZ() > st.K {
			t.Fatalf("trial %d: %d survivors exceed k=%d", trial, v.NNZ(), st.K)
		}
		for _, idx := range v.Index {
			if !want[idx] {
				t.Fatalf("trial %d: index %d survived but is not in top-k(v+residual)", trial, idx)
			}
		}
		if len(want) != v.NNZ() {
			t.Fatalf("trial %d: kept %d of the %d top-k coordinates", trial, v.NNZ(), len(want))
		}
		// Error-feedback conservation: encoded + residual == merged.
		back := sparse.MergeInto(nil, v, st.Residual())
		if back.NNZ() != merged.NNZ() {
			t.Fatalf("trial %d: reconstruction nnz %d, merged %d", trial, back.NNZ(), merged.NNZ())
		}
		for i := range back.Index {
			if back.Index[i] != merged.Index[i] || back.Value[i] != merged.Value[i] {
				t.Fatalf("trial %d: reconstruction diverged at pos %d", trial, i)
			}
		}
	}
}

// TestTopKQ8ResidualCarriesQuantError pins the composed codec's residual
// semantics: after a topk-q8 encode, encoded + residual still equals the
// merged pre-encode contribution (the residual absorbs quantization error
// on kept coordinates, not just dropped mass).
func TestTopKQ8ResidualCarriesQuantError(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	st := NewState(TopKQ8, 0)
	st.KMin, st.KMax, st.K = 4, 32, 16
	st.Decay = 1 // exact conservation needs the undamped residual
	for trial := 0; trial < 100; trial++ {
		v := randVector(r, 256, 40)
		merged := mergeWithResidual(v, st)
		st.Encode(v)
		back := sparse.MergeInto(nil, v, st.Residual())
		if back.NNZ() != merged.NNZ() {
			t.Fatalf("trial %d: reconstruction nnz %d, merged %d", trial, back.NNZ(), merged.NNZ())
		}
		for i := range back.Index {
			if back.Index[i] != merged.Index[i] || math.Abs(back.Value[i]-merged.Value[i]) > 1e-12 {
				t.Fatalf("trial %d: pos %d: got %g want %g", trial, i, back.Value[i], merged.Value[i])
			}
		}
	}
}

// TestTopKResidualDecay pins the damped accumulator: with the default
// decay, the residual after an encode is exactly decay·(merged − encoded)
// — dropped coordinates carry a geometrically damped copy of their mass,
// which bounds the overshoot when they finally win selection (the
// exchanged vector is ADMM state, not a gradient increment).
func TestTopKResidualDecay(t *testing.T) {
	st := NewState(TopK, 0)
	st.KMin, st.KMax, st.K = 2, 2, 2
	v := sparse.FromDense([]float64{5, -4, 3, 2, 1})
	st.Encode(v)
	res := st.Residual()
	if res.NNZ() != 3 {
		t.Fatalf("residual nnz %d, want 3 dropped coordinates", res.NNZ())
	}
	for i, want := range []float64{DefaultDecay * 3, DefaultDecay * 2, DefaultDecay * 1} {
		if res.Index[i] != int32(i+2) || res.Value[i] != want {
			t.Fatalf("residual[%d] = (%d, %g), want (%d, %g)",
				i, res.Index[i], res.Value[i], i+2, want)
		}
	}
	// Second round: the carried mass is merged before selection, then
	// re-damped. Coordinate 2 now holds 3 + decay·3 and must win a slot.
	v2 := sparse.FromDense([]float64{5, -4, 3, 0, 0})
	st.Encode(v2)
	if v2.NNZ() != 2 || v2.Index[0] != 0 || v2.Index[1] != 2 {
		t.Fatalf("boosted coordinate did not win selection: %+v", v2)
	}
	if got, want := v2.Value[1], 3+DefaultDecay*3; got != want {
		t.Fatalf("selected value %g, want merged %g", got, want)
	}
}

// TestTopKNoErrorFeedbackDropsMass is the ablation's mechanism check: with
// the residual disabled, dropped coordinates are gone and the residual
// stays empty.
func TestTopKNoErrorFeedbackDropsMass(t *testing.T) {
	st := NewState(TopK, 0)
	st.DisableErrorFeedback = true
	st.KMin, st.KMax, st.K = 2, 2, 2
	v := sparse.FromDense([]float64{5, -4, 3, 2, 1})
	st.Encode(v)
	if v.NNZ() != 2 || v.Value[0] != 5 || v.Value[1] != -4 {
		t.Fatalf("selection wrong: %+v", v)
	}
	if st.Residual().NNZ() != 0 {
		t.Fatalf("ablation accumulated a residual: %+v", st.Residual())
	}
}

// TestTopKDeterministicTieBreak: equal magnitudes resolve toward lower
// indices, keeping exactly k survivors.
func TestTopKDeterministicTieBreak(t *testing.T) {
	st := NewState(TopK, 0)
	st.KMin, st.KMax, st.K = 3, 3, 3
	v := sparse.FromDense([]float64{1, -1, 1, 1, 1})
	st.Encode(v)
	if v.NNZ() != 3 || v.Index[0] != 0 || v.Index[1] != 1 || v.Index[2] != 2 {
		t.Fatalf("tie-break not index-ascending: %+v", v)
	}
}

// TestStateAdapt pins the k adaptation: multiplicative steering toward the
// byte budget, clamped, deterministic, and inert without a budget.
func TestStateAdapt(t *testing.T) {
	st := NewState(TopK, 1000)
	st.KMin, st.KMax, st.K = 10, 500, 100
	st.Adapt(2000)  // twice over budget: k halves toward 50
	if st.K != 75 { // (100 + 100*1000/2000 + 1) / 2
		t.Fatalf("k after over-budget round: %d", st.K)
	}
	st.K = 100
	st.Adapt(10)     // far under budget: target clamps at KMax
	if st.K != 300 { // (100 + 500 + 1) / 2
		t.Fatalf("k after under-budget round: %d", st.K)
	}
	st.K = 11
	st.Adapt(1 << 40) // absurd observation: clamp at KMin
	if st.K != st.KMin {
		t.Fatalf("k fell through KMin: %d", st.K)
	}
	fixed := NewState(TopK, 0)
	fixed.KMin, fixed.KMax, fixed.K = 10, 500, 100
	fixed.Adapt(99999)
	if fixed.K != 100 {
		t.Fatalf("budget-less state adapted: %d", fixed.K)
	}
}

// TestStateResetClearsResidual: the elastic-rejoin hook empties the
// residual and re-derives k.
func TestStateResetClearsResidual(t *testing.T) {
	st := NewState(TopK, 0)
	st.KMin, st.KMax, st.K = 2, 2, 2
	v := sparse.FromDense([]float64{5, 4, 3, 2, 1})
	st.Encode(v)
	if st.Residual().NNZ() == 0 {
		t.Fatal("setup: nothing dropped")
	}
	st.Reset()
	if st.Residual().NNZ() != 0 || st.K != 0 {
		t.Fatalf("Reset left state behind: residual nnz %d, k %d", st.Residual().NNZ(), st.K)
	}
}

// TestNewStateNonTopK: every non-topk kind yields a nil state, the gate
// callers use to keep stateless codecs on their existing path.
func TestNewStateNonTopK(t *testing.T) {
	for _, k := range []Kind{Sparse, SparseQ8, SparseQ16, Dense, DenseF32} {
		if NewState(k, 0) != nil {
			t.Fatalf("%s: got a topk state", k)
		}
	}
	if NewState(TopK, 0) == nil || NewState(TopKQ8, 0) == nil {
		t.Fatal("topk kinds yielded no state")
	}
}

// TestTopKEncodeAllocFree is the zero-alloc contract for the warmed
// error-feedback encode path: once the State's scratch has grown to the
// working set, per-round encodes never touch the heap.
func TestTopKEncodeAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counting is unreliable under -race")
	}
	for _, kind := range []Kind{TopK, TopKQ8} {
		r := rand.New(rand.NewSource(29))
		st := NewState(kind, 0)
		st.KMin, st.KMax, st.K = 8, 64, 32
		const dim = 1024
		// Pre-generate contributions so the measured loop does no RNG or
		// construction work, and warm every scratch buffer.
		vs := make([]*sparse.Vector, 16)
		for i := range vs {
			vs[i] = randVector(r, dim, 200)
		}
		work := make([]*sparse.Vector, len(vs))
		for i := range work {
			work[i] = sparse.NewVector(dim, 256+64)
		}
		warm := func() {
			for i, v := range vs {
				work[i].ReuseFrom(v)
				st.Encode(work[i])
			}
		}
		// The residual's support keeps widening for a few passes before it
		// saturates (bounded by dim); warm until the scratch stops growing.
		for pass := 0; pass < 8; pass++ {
			warm()
		}
		allocs := testing.AllocsPerRun(10, warm)
		if allocs != 0 {
			t.Fatalf("%s: warmed encode allocates %.1f times per pass", kind, allocs)
		}
	}
}

// TestTopKStatelessCodecDegradesGracefully: the stateless codec face
// applies only value rounding, so a call site without a State behaves
// like the exact/q8 codec instead of corrupting the contribution.
func TestTopKStatelessCodecDegradesGracefully(t *testing.T) {
	c, err := For(TopK)
	if err != nil {
		t.Fatal(err)
	}
	v := sparse.FromDense([]float64{1, 2, 3})
	c.EncodeSparse(v)
	if v.NNZ() != 3 {
		t.Fatalf("stateless topk dropped entries: %+v", v)
	}
	c8, _ := For(TopKQ8)
	v8 := sparse.FromDense([]float64{1, 0.5})
	c8.EncodeSparse(v8)
	if v8.NNZ() != 2 {
		t.Fatalf("stateless topk-q8 dropped entries: %+v", v8)
	}
}
