// Package vec provides the dense float64 vector kernels used throughout the
// PSRA-HGADMM library: BLAS-level-1 style operations (axpy, dot, scale,
// norms), numerically careful summation, and small helpers for cloning and
// zeroing. All functions operate on plain []float64 so callers can slice
// blocks out of larger buffers without copies, which the collective
// communication layer relies on heavily.
//
// Unless stated otherwise, functions panic when the input lengths disagree;
// a length mismatch is always a programming error in this codebase, never a
// runtime condition to recover from.
package vec

import "math"

// Dot returns the inner product <a, b>.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: Dot length mismatch")
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddInto accumulates src into dst: dst += src.
func AddInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vec: AddInto length mismatch")
	}
	for i, sv := range src {
		dst[i] += sv
	}
}

// Nrm2 returns the Euclidean norm ||x||_2, guarding against overflow the
// same way the reference BLAS dnrm2 does (scaling by the running maximum).
// Like dnrm2 it returns scale·√ssq unconditionally: 0 for the zero vector,
// NaN (not 0) when NaN entries poisoned ssq without ever raising scale.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Nrm2Sq returns ||x||_2^2 via direct accumulation. Faster than Nrm2 and
// sufficient where the squared norm is what the formula needs.
func Nrm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// Nrm1 returns the L1 norm ||x||_1.
func Nrm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NrmInf returns the infinity norm max_i |x_i|.
func NrmInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		av := math.Abs(v)
		if av > m {
			m = av
		}
	}
	return m
}

// DistSq returns ||a - b||_2^2.
func DistSq(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: DistSq length mismatch")
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Equal reports whether a and b are elementwise identical (bitwise for NaN:
// NaN != NaN, matching ==).
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if av != b[i] {
			return false
		}
	}
	return true
}

// WithinTol reports whether max_i |a_i - b_i| <= tol.
func WithinTol(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if math.Abs(av-b[i]) > tol {
			return false
		}
	}
	return true
}

// SoftThreshold applies the scalar soft-thresholding (shrinkage) operator
//
//	S(v, k) = sign(v) * max(|v| - k, 0)
//
// which is the proximal operator of k*|·|. It is the core of the
// L1-regularized z-update in consensus ADMM.
func SoftThreshold(v, k float64) float64 {
	switch {
	case v > k:
		return v - k
	case v < -k:
		return v + k
	default:
		return 0
	}
}

// CountNonzero returns the number of elements with |x_i| > 0.
func CountNonzero(x []float64) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// Chunk describes the half-open index range [Lo, Hi) of block i when a
// vector of length n is split into p nearly equal contiguous blocks. The
// first n%p blocks get one extra element, matching the block layout both
// allreduce implementations and their cost analysis assume.
type Chunk struct{ Lo, Hi int }

// Len returns the chunk's width.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// Split returns the p chunks of a length-n vector. Every index belongs to
// exactly one chunk; chunks are contiguous, ordered, and sizes differ by at
// most one. p must be >= 1; n may be smaller than p (trailing chunks are
// then empty).
func Split(n, p int) []Chunk {
	return SplitInto(nil, n, p)
}

// SplitInto writes the p chunks of a length-n vector into dst (grown only
// when its capacity is too small) and returns it. Identical layout to
// Split; callers that retain dst split with zero steady-state allocation.
func SplitInto(dst []Chunk, n, p int) []Chunk {
	if p < 1 {
		panic("vec: Split requires p >= 1")
	}
	if cap(dst) < p {
		dst = make([]Chunk, p)
	}
	dst = dst[:p]
	base := n / p
	rem := n % p
	lo := 0
	for i := range dst {
		size := base
		if i < rem {
			size++
		}
		dst[i] = Chunk{Lo: lo, Hi: lo + size}
		lo += size
	}
	return dst
}

// ChunkOf returns the chunk index that owns position idx under Split(n, p).
func ChunkOf(n, p, idx int) int {
	if idx < 0 || idx >= n {
		panic("vec: ChunkOf index out of range")
	}
	base := n / p
	rem := n % p
	// First rem chunks have size base+1 and cover [0, rem*(base+1)).
	big := rem * (base + 1)
	if idx < big {
		return idx / (base + 1)
	}
	if base == 0 {
		// idx >= big and all remaining chunks are empty: unreachable given
		// idx < n, because n == big when base == 0.
		panic("vec: ChunkOf internal error")
	}
	return rem + (idx-big)/base
}
