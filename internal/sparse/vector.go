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
	"math/bits"
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

// IndexSet is a set of indices in [0, n) that drains in ascending order
// without sorting, a two-level bitset: bit i of words is "i is marked", bit
// w of summary is "words[w] != 0", so a walk costs O(n/4096 + members). It
// is the touched set of every scatter-then-extract reduction (Accumulator,
// collective's robust combine). The zero value is an empty set over [0, 0).
type IndexSet struct {
	words, summary []uint64
}

// Reset empties the set and re-targets it to [0, n), allocating only when n
// exceeds the capacity. An empty set's words are all zero out to their
// capacity, so re-slicing exposes nothing stale.
func (s *IndexSet) Reset(n int) {
	for w, _ := s.TakeWord(0); w >= 0; w, _ = s.TakeWord(w + 1) {
	}
	nw, ns := (n+63)>>6, (n+4095)>>12
	if cap(s.words) < nw {
		s.words, s.summary = make([]uint64, nw), make([]uint64, ns)
	}
	s.words, s.summary = s.words[:nw], s.summary[:ns]
}

// Mark adds i, which must lie in [0, n).
func (s *IndexSet) Mark(i int32) { mark(s.words, s.summary, i) }

// mark is Mark on locals: a scatter loop storing to other memory between
// marks would otherwise re-load both slice headers through s per entry.
func mark(words, summary []uint64, i int32) {
	w := uint32(i) >> 6
	if words[w] == 0 {
		summary[w>>6] |= 1 << (w & 63)
	}
	words[w] |= 1 << (uint32(i) & 63)
}

// Len returns the number of marked indices.
func (s *IndexSet) Len() int {
	n := 0
	for w := s.next(0); w >= 0; w = s.next(w + 1) {
		n += bits.OnesCount64(s.words[w])
	}
	return n
}

// TakeWord removes and returns the first non-empty word at or after word
// index from — bit b of word stands for index w<<6 + b — or (-1, 0) when
// none is left. Taking from 0, then from w+1, and peeling bits off each word
// with TrailingZeros64 visits every member in ascending order and leaves
// the set empty.
func (s *IndexSet) TakeWord(from int) (w int, word uint64) {
	if w = s.next(from); w < 0 {
		return -1, 0
	}
	word, s.words[w] = s.words[w], 0
	s.summary[w>>6] &^= 1 << (w & 63)
	return w, word
}

// Drain appends every member to dst in ascending order, leaving the set
// empty, and returns the extended slice.
func (s *IndexSet) Drain(dst []int32) []int32 {
	for w, word := s.TakeWord(0); w >= 0; w, word = s.TakeWord(w + 1) {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// next returns the first non-empty word at or after from, or -1.
func (s *IndexSet) next(from int) int {
	sw := from >> 6
	if sw >= len(s.summary) {
		return -1
	}
	m := s.summary[sw] >> (from & 63) << (from & 63)
	for m == 0 {
		if sw++; sw == len(s.summary) {
			return -1
		}
		m = s.summary[sw]
	}
	return sw<<6 + bits.TrailingZeros64(m)
}

// Accumulator sums many sparse vectors of a fixed dimension without
// repeated merge allocations: a dense scratch plus the IndexSet of touched
// coordinates, drained in ascending order — what sorting a touched list
// would yield. Invariant: dense is zero off the set, out to its capacity.
// Intended for reduce fan-ins where dozens of sparse vectors with
// overlapping supports are combined. The zero value has dimension 0.
type Accumulator struct {
	dim     int
	dense   []float64
	touched IndexSet
}

// NewAccumulator returns an empty accumulator of the given dimension.
func NewAccumulator(dim int) *Accumulator {
	a := new(Accumulator)
	a.Reset(dim)
	return a
}

// Add accumulates v (which must have matching dimension).
func (a *Accumulator) Add(v *Vector) {
	if v.Dim != a.dim {
		panic("sparse: Accumulator dimension mismatch")
	}
	dense, words, summary := a.dense, a.touched.words, a.touched.summary
	vals := v.Value[:len(v.Index)]
	for k, i := range v.Index {
		dense[i] += vals[k]
		mark(words, summary, i)
	}
}

// AddRange accumulates v's entries at storage positions [from, to),
// re-based by -base, into the accumulator. Companion of Vector.Range:
// together they fold one block of a global-coordinate vector into a
// block-width accumulator without materializing a re-based slice. The
// additions are the same dense[i] += value sequence Add performs on a
// SliceInto copy, so sums are bit-identical to the slice-then-Add path.
func (a *Accumulator) AddRange(v *Vector, from, to int, base int32) {
	dense, words, summary := a.dense, a.touched.words, a.touched.summary
	idx, vals := v.Index[from:to], v.Value[from:to]
	vals = vals[:len(idx)]
	for k, gi := range idx {
		i := gi - base
		if int(i) >= len(dense) || i < 0 {
			panic("sparse: AddRange index out of accumulator range")
		}
		dense[i] += vals[k]
		mark(words, summary, i)
	}
}

// Sum extracts the accumulated total as a sparse vector and resets the
// accumulator for reuse. Exact-zero sums are dropped.
func (a *Accumulator) Sum() *Vector {
	return a.SumInto(nil)
}

// SumInto is Sum writing into dst (allocated when nil, at exactly the
// touched count; grown only when too small) so steady-state reduce fan-ins
// extract their total without allocating. dst is reset to the accumulator's
// dimension first.
func (a *Accumulator) SumInto(dst *Vector) *Vector {
	if dst == nil {
		dst = NewVector(a.dim, a.touched.Len())
	} else {
		dst.Reset(a.dim)
	}
	for w, word := a.touched.TakeWord(0); w >= 0; w, word = a.touched.TakeWord(w + 1) {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if v := a.dense[i]; v != 0 {
				dst.Index = append(dst.Index, int32(i))
				dst.Value = append(dst.Value, v)
			}
			a.dense[i] = 0
		}
	}
	return dst
}

// Reset empties the accumulator and re-dimensions it, growing the dense
// scratch only when dim exceeds its capacity. Used when a pooled
// accumulator is re-targeted (e.g. after an elastic regroup changes the
// block layout). By the invariant a dim inside the capacity re-slices onto
// zeros; only an aborted use (entries added, never extracted) is scrubbed.
func (a *Accumulator) Reset(dim int) {
	if a.touched.Len() > 0 {
		clear(a.dense[:cap(a.dense)])
	}
	a.touched.Reset(dim)
	if cap(a.dense) < dim {
		a.dense = make([]float64, dim)
	}
	a.dim, a.dense = dim, a.dense[:dim]
}
