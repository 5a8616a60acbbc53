package exchange

import (
	"bytes"
	"math"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// FuzzTopKDecode mirrors wire.FuzzDecodeFrom for the top-k path: arbitrary
// bytes are parsed into a contribution plus selection parameters, pushed
// through the stateful error-feedback encode, framed with
// wire.AppendMessage, and decoded back with wire.DecodeFrom. Some bytes
// map to ±Inf, NaN and repeated magnitudes. Invariants: Encode never
// panics and never emits a structurally invalid vector (Check passes for
// both survivors and residual), the encoded support is a subset of the
// merged input's, and the frame round-trips through the wire codec
// bit-for-bit. The exact kind sends exactly min(k, merged nnz) entries,
// each with its merged value's bits, as many NaNs as fit in k, and parks
// only the NaNs beyond k in the residual; q8, which drops entries that
// round to zero, sends at most that many.
func FuzzTopKDecode(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3}, uint8(4), false)
	f.Add([]byte{1, 255, 1, 254, 2, 253, 3, 252, 4, 0}, uint8(2), true)
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(1), false)
	f.Add([]byte{}, uint8(0), true)
	f.Add([]byte{0x71, 0xf2, 0x13, 0x23, 0x83, 0xd1, 0xe2, 0xf0, 0x10}, uint8(2), false)
	f.Add(bytes.Repeat([]byte{0xf0, 0x11}, 12), uint8(3), false)
	f.Add([]byte{0x70, 0x31, 0x42, 0x53, 0x80}, uint8(1), true)

	f.Fuzz(func(t *testing.T, data []byte, kByte uint8, q8 bool) {
		// Deterministically derive a sparse vector from the fuzz bytes:
		// each byte contributes an index gap (low nibble + 1) and a value,
		// keeping indices strictly increasing. The high nibble picks +Inf
		// (7), −Inf (8), NaN (15), one of four repeated magnitudes (1, 2,
		// 13, 14), or the byte as a signed fraction.
		const dim = 4096
		v := sparse.NewVector(dim, len(data))
		idx := int32(-1)
		for _, b := range data {
			idx += int32(b&0x0f) + 1
			if int(idx) >= dim {
				break
			}
			val := float64(int8(b)) / 16
			switch b >> 4 {
			case 7:
				val = math.Inf(1)
			case 8:
				val = math.Inf(-1)
			case 15:
				val = math.NaN()
			case 1, 2, 13, 14:
				val = float64(int8(b&0xf0)) / 16
			}
			if val == 0 {
				continue
			}
			v.Index = append(v.Index, idx)
			v.Value = append(v.Value, val)
		}
		if err := v.Check(); err != nil {
			t.Fatalf("constructed vector invalid: %v", err)
		}

		kind := TopK
		if q8 {
			kind = TopKQ8
		}
		st := NewState(kind, 0)
		k := int(kByte%64) + 1
		st.KMin, st.KMax, st.K = 1, k, k

		// Two rounds so the second encode consumes a nonempty residual.
		for round := 0; round < 2; round++ {
			merged := mergeWithResidual(v, st)
			st.Encode(v)
			if err := v.Check(); err != nil {
				t.Fatalf("round %d: encoded vector invalid: %v", round, err)
			}
			if err := st.Residual().Check(); err != nil {
				t.Fatalf("round %d: residual invalid: %v", round, err)
			}
			want := min(k, merged.NNZ())
			if v.NNZ() > want || !q8 && v.NNZ() != want {
				t.Fatalf("round %d: %d survivors, want min(k=%d, merged nnz %d)", round, v.NNZ(), k, merged.NNZ())
			}
			j := 0
			for p, kept := range v.Index {
				for j < merged.NNZ() && merged.Index[j] < kept {
					j++
				}
				if j >= merged.NNZ() || merged.Index[j] != kept {
					t.Fatalf("round %d: survivor %d not in merged support", round, kept)
				}
				if !q8 && math.Float64bits(v.Value[p]) != math.Float64bits(merged.Value[j]) {
					t.Fatalf("round %d: survivor %d sent %g, merged %g", round, kept, v.Value[p], merged.Value[j])
				}
			}
			if !q8 {
				nans := countNaN(merged.Value)
				if got := countNaN(v.Value); got != min(nans, k) {
					t.Fatalf("round %d: %d NaN survivors of %d, k=%d", round, got, nans, k)
				}
				if got := countNaN(st.Residual().Value); got != max(nans-k, 0) {
					t.Fatalf("round %d: residual holds %d NaNs of %d, k=%d", round, got, nans, k)
				}
			}

			// Wire round-trip: the encoded contribution must frame and
			// decode canonically, like any other sparse payload.
			msg := wire.SparseMsg(9, v)
			frame, err := wire.AppendMessage(nil, msg)
			if err != nil {
				t.Fatalf("round %d: encode frame: %v", round, err)
			}
			got, _, err := wire.DecodeFrom(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatalf("round %d: decode frame: %v", round, err)
			}
			re, err := wire.AppendMessage(nil, got)
			if err != nil {
				t.Fatalf("round %d: re-encode: %v", round, err)
			}
			if !bytes.Equal(frame, re) {
				t.Fatalf("round %d: wire round-trip diverged", round)
			}
		}
	})
}

func countNaN(x []float64) int {
	n := 0
	for _, v := range x {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}
