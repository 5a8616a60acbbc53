package sparse

import "sort"

// This file holds the destination-reuse counterparts of the allocating
// constructors in vector.go. Each XxxInto writes into a caller-provided
// vector (grown only when capacity is short) so steady-state iterations
// rebuild their sparse state without touching the heap. Destinations must
// not alias any source argument.

// Reset empties v and sets its dimension, keeping the backing arrays for
// reuse.
func (v *Vector) Reset(dim int) {
	v.Dim = dim
	v.Index = v.Index[:0]
	v.Value = v.Value[:0]
}

// grow ensures capacity for nnz entries without retaining old contents.
func (v *Vector) grow(nnz int) {
	if cap(v.Index) < nnz {
		v.Index = make([]int32, 0, nnz)
		v.Value = make([]float64, 0, nnz)
	}
}

// ReuseFrom makes v a deep copy of src, reusing v's backing arrays when
// they are large enough.
func (v *Vector) ReuseFrom(src *Vector) {
	v.Reset(src.Dim)
	v.grow(len(src.Index))
	v.Index = append(v.Index, src.Index...)
	v.Value = append(v.Value, src.Value...)
}

// FromDenseInto is FromDense writing into dst (allocated when nil).
func FromDenseInto(dst *Vector, x []float64) *Vector {
	if dst == nil {
		return FromDense(x)
	}
	dst.Reset(len(x))
	for i, xv := range x {
		if xv != 0 {
			dst.Index = append(dst.Index, int32(i))
			dst.Value = append(dst.Value, xv)
		}
	}
	return dst
}

// ToDenseInto expands v into dst, which is grown to length Dim when too
// small and fully overwritten (zeros included). Returns the destination.
func (v *Vector) ToDenseInto(dst []float64) []float64 {
	if cap(dst) < v.Dim {
		dst = make([]float64, v.Dim)
	}
	dst = dst[:v.Dim]
	for i := range dst {
		dst[i] = 0
	}
	for k, i := range v.Index {
		dst[i] = v.Value[k]
	}
	return dst
}

// SliceInto is Slice writing into dst (allocated when nil). dst must not
// alias v.
func (v *Vector) SliceInto(dst *Vector, lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.Dim {
		panic("sparse: Slice bounds out of range")
	}
	from := sort.Search(len(v.Index), func(k int) bool { return int(v.Index[k]) >= lo })
	to := sort.Search(len(v.Index), func(k int) bool { return int(v.Index[k]) >= hi })
	if dst == nil {
		dst = NewVector(hi-lo, to-from)
	} else {
		dst.Reset(hi - lo)
		dst.grow(to - from)
	}
	for k := from; k < to; k++ {
		dst.Index = append(dst.Index, v.Index[k]-int32(lo))
		dst.Value = append(dst.Value, v.Value[k])
	}
	return dst
}

// MergeInto writes a + b into dst (allocated when nil), where a and b share
// the same Dim. Indices present in both are summed; sums that cancel to
// exactly zero are dropped. dst must not alias a or b.
func MergeInto(dst, a, b *Vector) *Vector {
	if a.Dim != b.Dim {
		panic("sparse: Merge dimension mismatch")
	}
	if dst == nil {
		dst = NewVector(a.Dim, len(a.Index)+len(b.Index))
	} else {
		if dst == a || dst == b {
			panic("sparse: MergeInto destination aliases a source")
		}
		dst.Reset(a.Dim)
		dst.grow(len(a.Index) + len(b.Index))
	}
	i, j := 0, 0
	for i < len(a.Index) && j < len(b.Index) {
		switch {
		case a.Index[i] < b.Index[j]:
			dst.Index = append(dst.Index, a.Index[i])
			dst.Value = append(dst.Value, a.Value[i])
			i++
		case a.Index[i] > b.Index[j]:
			dst.Index = append(dst.Index, b.Index[j])
			dst.Value = append(dst.Value, b.Value[j])
			j++
		default:
			if s := a.Value[i] + b.Value[j]; s != 0 {
				dst.Index = append(dst.Index, a.Index[i])
				dst.Value = append(dst.Value, s)
			}
			i++
			j++
		}
	}
	for ; i < len(a.Index); i++ {
		dst.Index = append(dst.Index, a.Index[i])
		dst.Value = append(dst.Value, a.Value[i])
	}
	for ; j < len(b.Index); j++ {
		dst.Index = append(dst.Index, b.Index[j])
		dst.Value = append(dst.Value, b.Value[j])
	}
	return dst
}

// ConcatInto stitches re-based block vectors (as produced by Slice over
// consecutive chunks) back into one vector of dimension dim, written into
// dst (allocated when nil). offsets[i] is the dense position where
// blocks[i] begins; blocks must be non-overlapping and given in increasing
// offset order. dst must not alias any block.
func ConcatInto(dst *Vector, dim int, offsets []int, blocks []*Vector) *Vector {
	if len(offsets) != len(blocks) {
		panic("sparse: Concat offsets/blocks length mismatch")
	}
	nnz := 0
	for _, b := range blocks {
		nnz += b.NNZ()
	}
	if dst == nil {
		dst = NewVector(dim, nnz)
	} else {
		dst.Reset(dim)
		dst.grow(nnz)
	}
	prevEnd := 0
	for bi, b := range blocks {
		off := offsets[bi]
		if off < prevEnd {
			panic("sparse: Concat blocks overlap or out of order")
		}
		if off+b.Dim > dim {
			panic("sparse: Concat block exceeds dimension")
		}
		for k, i := range b.Index {
			dst.Index = append(dst.Index, i+int32(off))
			dst.Value = append(dst.Value, b.Value[k])
		}
		prevEnd = off + b.Dim
	}
	return dst
}
