package exchange

import (
	"math"
	"testing"

	"psrahgadmm/internal/sparse"
)

// contribution returns the fixed test vector: two loud coordinates and one
// quiet one that plain magnitude selection starves forever at k=2.
func contribution() *sparse.Vector {
	v := sparse.NewVector(8, 3)
	v.Append(0, 10)
	v.Append(1, 9)
	v.Append(5, 1)
	return v
}

func pinnedState(age bool) *State {
	s := NewState(TopK, 0)
	s.K, s.KMin, s.KMax = 2, 2, 2
	s.AgeScoring = age
	return s
}

// TestAgeScoringRescuesStarvedCoordinate: with damped error feedback the
// quiet coordinate's residual plateaus at v/(1−decay) = 2 < 9, so plain
// magnitude selection never ships it; age-weighted scoring grows its
// priority linearly in rounds waited and must ship it eventually.
func TestAgeScoringRescuesStarvedCoordinate(t *testing.T) {
	const rounds = 25
	shipped := func(s *State) int {
		for r := 0; r < rounds; r++ {
			v := contribution()
			s.Encode(v)
			for _, idx := range v.Index {
				if idx == 5 {
					return r
				}
			}
		}
		return -1
	}
	if r := shipped(pinnedState(false)); r != -1 {
		t.Fatalf("plain magnitude selection shipped the starved coordinate at round %d", r)
	}
	r := shipped(pinnedState(true))
	if r < 0 {
		t.Fatalf("age scoring never shipped the starved coordinate in %d rounds", rounds)
	}
	if r == 0 {
		t.Fatal("age scoring shipped the quiet coordinate on round 0: ages start at zero, so round 0 must match plain magnitude")
	}
}

// TestAgeScoringFirstRoundMatchesMagnitude: an empty residual means every
// age is zero, so the knob must select exactly what magnitude selection
// does — byte for byte.
func TestAgeScoringFirstRoundMatchesMagnitude(t *testing.T) {
	plain, aged := pinnedState(false), pinnedState(true)
	vp, va := contribution(), contribution()
	plain.Encode(vp)
	aged.Encode(va)
	if vp.NNZ() != va.NNZ() {
		t.Fatalf("first-round selections differ: %d vs %d entries", vp.NNZ(), va.NNZ())
	}
	for k := range vp.Index {
		if vp.Index[k] != va.Index[k] || vp.Value[k] != va.Value[k] {
			t.Fatalf("first-round entry %d differs: (%d,%v) vs (%d,%v)",
				k, vp.Index[k], vp.Value[k], va.Index[k], va.Value[k])
		}
	}
}

// TestAgeScoringAgeResetsAfterShip: once the starved coordinate ships, its
// residual age restarts, so it goes back to waiting instead of hogging a
// slot every subsequent round.
func TestAgeScoringAgeResetsAfterShip(t *testing.T) {
	s := pinnedState(true)
	var shipRounds []int
	for r := 0; r < 40; r++ {
		v := contribution()
		s.Encode(v)
		for _, idx := range v.Index {
			if idx == 5 {
				shipRounds = append(shipRounds, r)
			}
		}
	}
	if len(shipRounds) < 2 {
		t.Fatalf("starved coordinate shipped %d times in 40 rounds, want at least 2", len(shipRounds))
	}
	for i := 1; i < len(shipRounds); i++ {
		if shipRounds[i] == shipRounds[i-1]+1 {
			t.Fatalf("starved coordinate shipped in consecutive rounds %v: age did not reset", shipRounds)
		}
	}
	if err := s.Residual().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeSparseBlocksPerBlockScale: block-wise quantization must equal
// quantizing each extracted block on its own (per-block max-abs scale) and
// differ from whole-vector quantization when block magnitudes are skewed.
func TestEncodeSparseBlocksPerBlockScale(t *testing.T) {
	build := func() *sparse.Vector {
		v := sparse.NewVector(16, 0)
		v.Append(0, 1000)
		v.Append(3, 1.25)
		v.Append(8, 0.03)
		v.Append(9, -0.011)
		v.Append(15, 0.5)
		return v
	}
	offs := []int{0, 8, 16}
	c, err := For(SparseQ8)
	if err != nil {
		t.Fatal(err)
	}

	got := build()
	EncodeSparseBlocks(c, got, offs)
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}

	// Reference: quantize each re-based block separately, then stitch.
	ref := build()
	lo8 := ref.Slice(0, 8)
	hi8 := ref.Slice(8, 16)
	QuantizeSparseBits(lo8, 8)
	QuantizeSparseBits(hi8, 8)
	want := sparse.ConcatInto(nil, 16, []int{0, 8}, []*sparse.Vector{lo8, hi8})
	if got.NNZ() != want.NNZ() {
		t.Fatalf("block quantization NNZ %d, want %d", got.NNZ(), want.NNZ())
	}
	for k := range want.Index {
		if got.Index[k] != want.Index[k] || got.Value[k] != want.Value[k] {
			t.Fatalf("entry %d: got (%d,%v), want (%d,%v)",
				k, got.Index[k], got.Value[k], want.Index[k], want.Value[k])
		}
	}

	// The skewed first block must show the difference vs a global scale:
	// against max-abs 1000, the 0.03 and 1.25 entries die; per block they
	// survive.
	global := build()
	QuantizeSparseBits(global, 8)
	if global.NNZ() >= got.NNZ() {
		t.Fatalf("global scale kept %d entries, per-block %d: expected per-block to preserve more", global.NNZ(), got.NNZ())
	}

	// The whole-vector quantizer is the one-block call, bit for bit.
	for bits, kind := range map[int]Kind{8: SparseQ8, 16: SparseQ16} {
		qc, err := For(kind)
		if err != nil {
			t.Fatal(err)
		}
		whole, oneBlock := build(), build()
		QuantizeSparseBits(whole, bits)
		EncodeSparseBlocks(qc, oneBlock, []int{0, oneBlock.Dim})
		if whole.NNZ() != oneBlock.NNZ() {
			t.Fatalf("%d bits: QuantizeSparseBits kept %d entries, the one-block encode %d", bits, whole.NNZ(), oneBlock.NNZ())
		}
		for k := range whole.Index {
			if whole.Index[k] != oneBlock.Index[k] || math.Float64bits(whole.Value[k]) != math.Float64bits(oneBlock.Value[k]) {
				t.Fatalf("%d bits, entry %d: QuantizeSparseBits (%d,%v), one-block encode (%d,%v)",
					bits, k, whole.Index[k], whole.Value[k], oneBlock.Index[k], oneBlock.Value[k])
			}
		}
	}

	// Exact codecs are no-ops.
	exact := build()
	sc, _ := For(Sparse)
	EncodeSparseBlocks(sc, exact, offs)
	orig := build()
	if exact.NNZ() != orig.NNZ() {
		t.Fatal("exact codec mutated the vector")
	}
}

// TestResetClearsAgeState is the rejoin contract at the codec level: after
// Reset — what the engine calls when a rank rejoins as a fresh incarnation
// — the residual AND its ages are gone, so the state's next selection is
// bit-identical to a brand-new state's. Without the age wipe, a rejoiner
// would inherit aged priorities describing contributions its dead
// incarnation never shipped.
func TestResetClearsAgeState(t *testing.T) {
	aged := pinnedState(true)
	// Build up residual + age history: the quiet coordinate accrues age.
	for r := 0; r < 5; r++ {
		aged.Encode(contribution())
	}
	if len(aged.ageRes) == 0 {
		t.Fatal("test premise broken: no age state accrued after 5 rounds")
	}
	aged.Reset()
	if len(aged.ageRes) != 0 || aged.residual.NNZ() != 0 {
		t.Fatalf("Reset left state behind: %d ages, %d residual entries",
			len(aged.ageRes), aged.residual.NNZ())
	}
	// Selection after Reset must match a pristine state's first round.
	fresh := pinnedState(true)
	// Reset zeroes K so budgeted states re-derive it; this pinned state has
	// no budget, so restore the fixed selection size as the engine's rejoin
	// path relies on first-encode re-derivation.
	aged.K = 2
	vr, vf := contribution(), contribution()
	aged.Encode(vr)
	fresh.Encode(vf)
	if vr.NNZ() != vf.NNZ() {
		t.Fatalf("post-reset selection differs from pristine: %d vs %d entries", vr.NNZ(), vf.NNZ())
	}
	for k := range vr.Index {
		if vr.Index[k] != vf.Index[k] || vr.Value[k] != vf.Value[k] {
			t.Fatalf("post-reset entry %d differs: (%d,%v) vs (%d,%v)",
				k, vr.Index[k], vr.Value[k], vf.Index[k], vf.Value[k])
		}
	}
}
