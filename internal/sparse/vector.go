// Package sparse implements the sparse linear-algebra substrate for
// PSRA-HGADMM: compressed sparse vectors, CSR matrices, and the block
// slicing / merging primitives the sparse collectives (Ring-Allreduce and
// PSR-Allreduce) are built on.
//
// Sparse vectors keep indices strictly increasing. Every constructor and
// mutator preserves that invariant, and Vector.Check verifies it; the
// property tests in this package exercise the invariant under random merges
// and slices.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Vector is a sparse float64 vector of logical length Dim with nonzeros at
// strictly increasing Index positions. A zero Vector is a valid empty vector
// of dimension 0.
type Vector struct {
	Dim   int
	Index []int32
	Value []float64
}

// NewVector returns an empty sparse vector of dimension dim with capacity
// for nnz nonzeros.
func NewVector(dim, nnz int) *Vector {
	return &Vector{
		Dim:   dim,
		Index: make([]int32, 0, nnz),
		Value: make([]float64, 0, nnz),
	}
}

// FromDense compresses a dense slice, dropping exact zeros.
func FromDense(x []float64) *Vector {
	v := NewVector(len(x), 0)
	for i, xv := range x {
		if xv != 0 {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, xv)
		}
	}
	return v
}

// FromMap builds a sparse vector from an index→value map, dropping zeros
// and sorting indices.
func FromMap(dim int, m map[int32]float64) *Vector {
	v := NewVector(dim, len(m))
	for i, val := range m {
		if val != 0 {
			v.Index = append(v.Index, i)
			v.Value = append(v.Value, val)
		}
	}
	sort.Sort(byIndex{v})
	return v
}

type byIndex struct{ v *Vector }

func (s byIndex) Len() int           { return len(s.v.Index) }
func (s byIndex) Less(i, j int) bool { return s.v.Index[i] < s.v.Index[j] }
func (s byIndex) Swap(i, j int) {
	s.v.Index[i], s.v.Index[j] = s.v.Index[j], s.v.Index[i]
	s.v.Value[i], s.v.Value[j] = s.v.Value[j], s.v.Value[i]
}

// NNZ returns the number of stored nonzeros.
func (v *Vector) NNZ() int { return len(v.Index) }

// Check validates the structural invariants: parallel slices, indices
// strictly increasing and within [0, Dim), no stored zeros.
func (v *Vector) Check() error {
	if len(v.Index) != len(v.Value) {
		return fmt.Errorf("sparse: index/value length mismatch %d != %d", len(v.Index), len(v.Value))
	}
	prev := int32(-1)
	for k, i := range v.Index {
		if i <= prev {
			return fmt.Errorf("sparse: indices not strictly increasing at pos %d (%d <= %d)", k, i, prev)
		}
		if int(i) >= v.Dim {
			return fmt.Errorf("sparse: index %d out of range for dim %d", i, v.Dim)
		}
		if v.Value[k] == 0 {
			return fmt.Errorf("sparse: stored zero at pos %d (index %d)", k, i)
		}
		prev = i
	}
	return nil
}

// ToDense expands into a newly allocated dense slice of length Dim.
func (v *Vector) ToDense() []float64 {
	out := make([]float64, v.Dim)
	for k, i := range v.Index {
		out[i] = v.Value[k]
	}
	return out
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := &Vector{
		Dim:   v.Dim,
		Index: make([]int32, len(v.Index)),
		Value: make([]float64, len(v.Value)),
	}
	copy(out.Index, v.Index)
	copy(out.Value, v.Value)
	return out
}

// Append adds a nonzero at index i, which must be greater than every index
// already present. Zero values are ignored.
func (v *Vector) Append(i int32, val float64) {
	if val == 0 {
		return
	}
	if n := len(v.Index); n > 0 && v.Index[n-1] >= i {
		panic("sparse: Append indices must be strictly increasing")
	}
	if int(i) >= v.Dim {
		panic("sparse: Append index out of range")
	}
	v.Index = append(v.Index, i)
	v.Value = append(v.Value, val)
}

// Dot returns the inner product with a dense vector of length Dim.
func (v *Vector) Dot(dense []float64) float64 {
	if len(dense) != v.Dim {
		panic("sparse: Dot dimension mismatch")
	}
	var s float64
	for k, i := range v.Index {
		s += v.Value[k] * dense[i]
	}
	return s
}

// AddIntoDense accumulates alpha*v into the dense slice dst (length Dim).
func (v *Vector) AddIntoDense(dst []float64, alpha float64) {
	if len(dst) != v.Dim {
		panic("sparse: AddIntoDense dimension mismatch")
	}
	for k, i := range v.Index {
		dst[i] += alpha * v.Value[k]
	}
}

// Scale multiplies every stored value by alpha in place. Scaling by zero
// empties the vector (no stored zeros).
func (v *Vector) Scale(alpha float64) {
	if alpha == 0 {
		v.Index = v.Index[:0]
		v.Value = v.Value[:0]
		return
	}
	for k := range v.Value {
		v.Value[k] *= alpha
	}
}

// Nrm2Sq returns the squared Euclidean norm.
func (v *Vector) Nrm2Sq() float64 {
	var s float64
	for _, val := range v.Value {
		s += val * val
	}
	return s
}

// Slice returns the sub-vector covering dense positions [lo, hi), re-based
// so the result has Dim = hi-lo and indices in [0, hi-lo). This is the
// block-extraction primitive the sparse collectives use to ship one owned
// block. The returned vector shares no storage with v.
func (v *Vector) Slice(lo, hi int) *Vector {
	return v.SliceInto(nil, lo, hi)
}

// Range returns the storage positions [from, to) of v's entries with
// indices in the dense range [lo, hi) — the no-copy block view: the
// block's entries are v.Index[from:to] / v.Value[from:to] at their global
// indices. Two binary searches, no allocation; the sharded collectives use
// it to walk one block of a global-coordinate payload without re-basing.
func (v *Vector) Range(lo, hi int) (from, to int) {
	if lo < 0 || hi < lo || hi > v.Dim {
		panic("sparse: Range bounds out of range")
	}
	if lo == 0 && hi == v.Dim {
		return 0, len(v.Index) // the whole vector: nothing to search for
	}
	from = sort.Search(len(v.Index), func(k int) bool { return int(v.Index[k]) >= lo })
	to = from + sort.Search(len(v.Index)-from, func(k int) bool { return int(v.Index[from+k]) >= hi })
	return from, to
}

// Merge returns a + b, where both share the same Dim. Indices present in
// both are summed; sums that cancel to exactly zero are dropped.
func Merge(a, b *Vector) *Vector {
	return MergeInto(nil, a, b)
}

// Concat stitches re-based block vectors (as produced by Slice over
// consecutive chunks) back into one vector of dimension dim. offsets[i] is
// the dense position where blocks[i] begins; blocks must be non-overlapping
// and given in increasing offset order.
func Concat(dim int, offsets []int, blocks []*Vector) *Vector {
	return ConcatInto(nil, dim, offsets, blocks)
}

// Accumulator sums many sparse vectors of a fixed dimension without
// repeated merge allocations: it keeps a dense scratch plus a touched-index
// set. Intended for reduce fan-ins where dozens of sparse vectors with
// overlapping supports are combined.
type Accumulator struct {
	dim     int
	dense   []float64
	touched []int32
	seen    []bool
}

// NewAccumulator returns an empty accumulator of the given dimension.
func NewAccumulator(dim int) *Accumulator {
	return &Accumulator{
		dim:   dim,
		dense: make([]float64, dim),
		seen:  make([]bool, dim),
	}
}

// Add accumulates v (which must have matching dimension).
func (a *Accumulator) Add(v *Vector) {
	if v.Dim != a.dim {
		panic("sparse: Accumulator dimension mismatch")
	}
	for k, i := range v.Index {
		if !a.seen[i] {
			a.seen[i] = true
			a.touched = append(a.touched, i)
		}
		a.dense[i] += v.Value[k]
	}
}

// AddRange accumulates v's entries at storage positions [from, to),
// re-based by -base, into the accumulator. Companion of Vector.Range:
// together they fold one block of a global-coordinate vector into a
// block-width accumulator without materializing a re-based slice. The
// additions are the same dense[i] += value sequence Add performs on a
// SliceInto copy, so sums are bit-identical to the slice-then-Add path.
func (a *Accumulator) AddRange(v *Vector, from, to int, base int32) {
	for k := from; k < to; k++ {
		i := v.Index[k] - base
		if int(i) >= a.dim || i < 0 {
			panic("sparse: AddRange index out of accumulator range")
		}
		if !a.seen[i] {
			a.seen[i] = true
			a.touched = append(a.touched, i)
		}
		a.dense[i] += v.Value[k]
	}
}

// AddDense accumulates a dense slice of matching dimension.
func (a *Accumulator) AddDense(x []float64) {
	if len(x) != a.dim {
		panic("sparse: Accumulator dense dimension mismatch")
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		i32 := int32(i)
		if !a.seen[i32] {
			a.seen[i32] = true
			a.touched = append(a.touched, i32)
		}
		a.dense[i] += xv
	}
}

// Sum extracts the accumulated total as a sparse vector and resets the
// accumulator for reuse. Exact-zero sums are dropped.
func (a *Accumulator) Sum() *Vector {
	return a.SumInto(nil)
}

// SumInto is Sum writing into dst (allocated when nil, grown only when too
// small) so steady-state reduce fan-ins extract their total without
// allocating. dst is reset to the accumulator's dimension first.
func (a *Accumulator) SumInto(dst *Vector) *Vector {
	slices.Sort(a.touched)
	if dst == nil {
		dst = NewVector(a.dim, len(a.touched))
	} else {
		dst.Reset(a.dim)
	}
	for _, i := range a.touched {
		if v := a.dense[i]; v != 0 {
			dst.Index = append(dst.Index, i)
			dst.Value = append(dst.Value, v)
		}
		a.dense[i] = 0
		a.seen[i] = false
	}
	a.touched = a.touched[:0]
	return dst
}

// Reset empties the accumulator and re-dimensions it, growing the dense
// scratch only when dim exceeds its capacity. Used when a pooled
// accumulator is re-targeted (e.g. after an elastic regroup changes the
// block layout).
func (a *Accumulator) Reset(dim int) {
	for _, i := range a.touched {
		a.dense[i] = 0
		a.seen[i] = false
	}
	a.touched = a.touched[:0]
	if dim == a.dim {
		return
	}
	if cap(a.dense) < dim {
		a.dense = make([]float64, dim)
		a.seen = make([]bool, dim)
	} else {
		// Shrinking then regrowing within capacity: clear the newly
		// exposed tail, which a smaller dim's Sum never visited.
		grown := a.dense[:dim]
		seen := a.seen[:dim]
		for i := a.dim; i < dim; i++ {
			grown[i] = 0
			seen[i] = false
		}
		a.dense = grown
		a.seen = seen
	}
	a.dim = dim
	a.dense = a.dense[:dim]
	a.seen = a.seen[:dim]
}
