package solver

import "psrahgadmm/internal/vec"

// ZUpdateL1 computes the consensus z-update for g(z) = lambda·‖z‖₁ (paper
// eq. 10, with the N-worker penalty aggregated correctly):
//
//	z = argmin_z  λ‖z‖₁ + (Nρ/2)‖z‖² − zᵀW
//	  = SoftThreshold(W, λ) / (Nρ)
//
// where W = Σᵢ (yᵢ + ρ·xᵢ) over the n workers contributing to W. Note the
// paper's eq. (10) writes ρ/2·‖z‖²; summing eq. (5)'s penalty over i gives
// N·ρ/2, which is what we use (the paper silently absorbs N into ρ).
// dst may alias w.
func ZUpdateL1(dst, w []float64, lambda, rho float64, n int) {
	if n <= 0 {
		panic("solver: ZUpdateL1 requires n >= 1")
	}
	inv := 1 / (rho * float64(n))
	for i, wi := range w {
		dst[i] = vec.SoftThreshold(wi, lambda) * inv
	}
}

// ZUpdateL1Blocks is ZUpdateL1 with a per-block contributor count: block b
// covers dst[offs[b]:offs[b+1]] (offs has len(counts)+1 entries, the
// partition's cumulative block offsets) and is scaled by counts[b] — the
// block's live subscriber count in a sharded run. A block with zero
// subscribers has provably zero W (no rank's support reaches it) and its
// z stays zero. With every count equal to n this is bit-identical to
// ZUpdateL1(dst, w, lambda, rho, n). dst may alias w.
func ZUpdateL1Blocks(dst, w []float64, lambda, rho float64, offs []int, counts []int) {
	if len(offs) != len(counts)+1 {
		panic("solver: ZUpdateL1Blocks offsets/counts mismatch")
	}
	for b, n := range counts {
		lo, hi := offs[b], offs[b+1]
		if n <= 0 {
			for i := lo; i < hi; i++ {
				dst[i] = 0
			}
			continue
		}
		inv := 1 / (rho * float64(n))
		for i := lo; i < hi; i++ {
			dst[i] = vec.SoftThreshold(w[i], lambda) * inv
		}
	}
}

// DualUpdate performs yᵢ ← yᵢ + ρ(xᵢ − z) in place (paper eq. 6).
func DualUpdate(y, x, z []float64, rho float64) {
	for i := range y {
		y[i] += rho * (x[i] - z[i])
	}
}

// WLocal computes wᵢ = yᵢ + ρ·xᵢ (paper eq. 8), the quantity each worker
// contributes to the Allreduce.
func WLocal(dst, y, x []float64, rho float64) {
	for i := range dst {
		dst[i] = y[i] + rho*x[i]
	}
}
