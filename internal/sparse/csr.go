package sparse

import (
	"fmt"
	"math/bits"
)

// CSR is a compressed-sparse-row matrix with NRows rows and NCols columns.
// Row r occupies positions [RowPtr[r], RowPtr[r+1]) of ColIdx/Val, with
// strictly increasing column indices inside each row. It is the storage
// format for every dataset shard: one row per training sample, one column
// per feature.
type CSR struct {
	NRows, NCols int
	RowPtr       []int64
	ColIdx       []int32
	Val          []float64
}

// NewCSR returns an empty matrix with the given shape and nonzero capacity.
func NewCSR(rows, cols, nnz int) *CSR {
	return &CSR{
		NRows:  rows,
		NCols:  cols,
		RowPtr: append(make([]int64, 0, rows+1), 0),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// AppendRow adds one row given parallel column/value slices with strictly
// increasing columns. The slices are copied. It panics if called after
// NRows rows have already been appended when the matrix was built with
// NewCSR; rows beyond the initial capacity grow NRows.
func (m *CSR) AppendRow(cols []int32, vals []float64) {
	if len(cols) != len(vals) {
		panic("sparse: AppendRow cols/vals length mismatch")
	}
	prev := int32(-1)
	for _, c := range cols {
		if c <= prev {
			panic("sparse: AppendRow columns must be strictly increasing")
		}
		if int(c) >= m.NCols {
			panic("sparse: AppendRow column out of range")
		}
		prev = c
	}
	m.ColIdx = append(m.ColIdx, cols...)
	m.Val = append(m.Val, vals...)
	m.RowPtr = append(m.RowPtr, int64(len(m.ColIdx)))
	if len(m.RowPtr)-1 > m.NRows {
		m.NRows = len(m.RowPtr) - 1
	}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Check validates structural invariants.
func (m *CSR) Check() error {
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("sparse: RowPtr length %d != NRows+1 (%d)", len(m.RowPtr), m.NRows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.NRows] != int64(len(m.ColIdx)) {
		return fmt.Errorf("sparse: RowPtr end %d != nnz %d", m.RowPtr[m.NRows], len(m.ColIdx))
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx/Val length mismatch")
	}
	for r := 0; r < m.NRows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("sparse: RowPtr decreasing at row %d", r)
		}
		prev := int32(-1)
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing", r)
			}
			if int(c) >= m.NCols {
				return fmt.Errorf("sparse: row %d column %d out of range", r, c)
			}
			prev = c
		}
	}
	return nil
}

// Row returns the column indices and values of row r as sub-slices of the
// matrix storage (do not modify).
func (m *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// The kernels below are the x-update's inner loops. Each ranges over its
// row as two equal-length sub-slices, so the one bounds check left per
// nonzero is the gather or scatter itself and nothing is re-loaded through
// m. Every sum takes its terms in stored order: that order fixes its bits,
// and the golden histories with them (DESIGN.md §3.3).

// rowDot continues the running sum s over one row's entries, in order.
func rowDot(s float64, cols []int32, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	for k, c := range cols {
		s += vals[k] * x[c]
	}
	return s
}

// rowAxpy adds a·row into dst, entry by entry in order.
func rowAxpy(dst []float64, cols []int32, vals []float64, a float64) {
	vals = vals[:len(cols)]
	for k, c := range cols {
		dst[c] += vals[k] * a
	}
}

// RowDot returns <row r, x> for dense x of length NCols.
func (m *CSR) RowDot(r int, x []float64) float64 {
	cols, vals := m.Row(r)
	return rowDot(0, cols, vals, x)
}

// MulVec computes dst = A·x, where x has length NCols and dst length NRows.
// Rows are walked two at a time, each with its own accumulator advanced in
// that row's column order: the pair's common prefix interleaved, then the
// longer row's tail (and an odd last row) alone. Two independent add chains
// hide the add latency one running sum serialises on; no row's order changes.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.NCols || len(dst) != m.NRows {
		panic("sparse: MulVec dimension mismatch")
	}
	rp := m.RowPtr[:m.NRows+1]
	r := 0
	for ; r+1 < len(dst); r += 2 {
		lo, mid, hi := rp[r], rp[r+1], rp[r+2]
		c0, v0 := m.ColIdx[lo:mid], m.Val[lo:mid]
		c1, v1 := m.ColIdx[mid:hi], m.Val[mid:hi]
		n := min(len(c0), len(c1))
		var s0, s1 float64
		p1, q0, q1 := c1[:n], v0[:n], v1[:n]
		for k, c := range c0[:n] {
			s0 += q0[k] * x[c]
			s1 += q1[k] * x[p1[k]]
		}
		dst[r], dst[r+1] = rowDot(s0, c0[n:], v0[n:], x), rowDot(s1, c1[n:], v1[n:], x)
	}
	if r < len(dst) {
		dst[r] = m.RowDot(r, x)
	}
}

// MulTransVec computes dst = Aᵀ·y, where y has length NRows and dst length
// NCols. dst is overwritten. Rows are scattered strictly one after another:
// a column's sum takes its terms in row order, which pairing rows would
// break (a CSC gather keeps it, and measured slower).
func (m *CSR) MulTransVec(dst, y []float64) {
	if len(y) != m.NRows || len(dst) != m.NCols {
		panic("sparse: MulTransVec dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	rp := m.RowPtr[:m.NRows+1]
	for r, yr := range y {
		if yr != 0 {
			rowAxpy(dst, m.ColIdx[rp[r]:rp[r+1]], m.Val[rp[r]:rp[r+1]], yr)
		}
	}
}

// RowSlice returns a new CSR holding rows [lo, hi) of m; storage is copied
// so shards can outlive the parent. Column dimension is preserved.
func (m *CSR) RowSlice(lo, hi int) *CSR {
	if lo < 0 || hi < lo || hi > m.NRows {
		panic("sparse: RowSlice bounds out of range")
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	out := &CSR{
		NRows:  hi - lo,
		NCols:  m.NCols,
		RowPtr: make([]int64, hi-lo+1),
		ColIdx: make([]int32, end-start),
		Val:    make([]float64, end-start),
	}
	for r := lo; r <= hi; r++ {
		out.RowPtr[r-lo] = m.RowPtr[r] - start
	}
	copy(out.ColIdx, m.ColIdx[start:end])
	copy(out.Val, m.Val[start:end])
	return out
}

// CompactColumns returns the sorted list of columns holding at least one
// stored entry and the matrix remapped onto them: compact has
// len(active) columns, column i standing for active[i], and shares RowPtr
// and Val with m. Everything a rank computes from its data shard lives on
// these columns (solver's subspace restriction, core's active subspace).
// When every column is touched the remap is the identity and compact is m
// itself.
//
// The remap is a bitset over the columns plus each word's rank, so column
// c lands on rank[c/64] + popcount(the word's bits below c): NCols/5 bytes
// of scratch instead of a 4·NCols-byte table. Ranks are set up back to back
// while the engine allocates its dimension-sized buffers, and a table per
// rank was enough garbage there to shift the collector's phase and raise a
// 16-rank run's peak RSS by 40 % (CHANGES.md, PR 21).
func (m *CSR) CompactColumns() (active []int32, compact *CSR) {
	words := make([]uint64, (m.NCols+63)/64)
	for _, c := range m.ColIdx {
		words[c>>6] |= 1 << (c & 63)
	}
	rank := make([]int32, len(words)+1)
	for i, w := range words {
		rank[i+1] = rank[i] + int32(bits.OnesCount64(w))
	}
	n := int(rank[len(words)])
	active = make([]int32, 0, n)
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			active = append(active, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	if n == m.NCols {
		return active, m
	}
	compact = &CSR{
		NRows:  m.NRows,
		NCols:  n,
		RowPtr: m.RowPtr,
		ColIdx: make([]int32, len(m.ColIdx)),
		Val:    m.Val,
	}
	for k, c := range m.ColIdx {
		below := words[c>>6] & (1<<(c&63) - 1)
		compact.ColIdx[k] = rank[c>>6] + int32(bits.OnesCount64(below))
	}
	return active, compact
}
