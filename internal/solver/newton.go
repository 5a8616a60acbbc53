package solver

import (
	"math"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// exactNewton is the optional interface tron looks for: an objective that
// can solve its Newton system exactly (see gramNewton). It is unexported on
// purpose, like restricted: the row-space step is how this package solves
// its own prox objectives on short shards, not a knob.
type exactNewton interface {
	// newtonStep writes s = −H⁻¹g, H the Hessian at the point of the last
	// Eval, and returns gᵀHg and the step's cost in Hessian-product
	// equivalents. ok is false when the objective's shape routes to CG,
	// ρ is not positive, or a pivot is not positive and finite; s is then
	// unspecified and the caller takes a CG step instead.
	newtonStep(g, s []float64) (gHg float64, cost int, ok bool)
	// curvature returns sᵀHs at the point of the last Eval from one A·s.
	curvature(s []float64) float64
}

// gramNewton solves the Newton system of a prox objective over a short,
// wide CSR exactly, in the matrix's row space. The Hessian there is
// H = ρI + AᵀDA (D = diag(d) the objective's curvature cache, the identity
// for least squares), and Woodbury gives
//
//	s = −H⁻¹g = (AᵀD½q − g)/ρ,  M·q = D½·A·g,  M = ρI + D½GD½,
//
// with G = AAᵀ. G is m×m, computed once per objective at the first step
// (the data never changes), and each step is one MulVec, one MulTransVec
// and an m×m Cholesky of M. The route is a fixed cost comparison on the
// objective's own matrix (newtonCost); every other shape keeps Steihaug
// CG. Scratch is the objective's, so steady-state steps allocate nothing.
type gramNewton struct {
	decided bool
	cost    int       // Hessian-product equivalents of one step; 0 routes to CG
	gram    []float64 // G = AAᵀ, m×m row-major, lower triangle
	chol    []float64 // the Cholesky factor L of M, m×m row-major, lower triangle
	inv     []float64 // 1/Lᵢᵢ
	sd, q   []float64 // D½ and the m-vector being solved
}

// newtonCost returns what one row-space Newton step over a costs in
// Hessian products (two CSR sweeps, 2·nnz flops, simnet.WorkUnits'
// currency), or 0 when the step should not be taken. The route is exact iff
// the Cholesky's m³/6 flops cost at most two products, m³/6 ≤ 4·nnz; the
// step then counts its one product plus ⌈m³/(12·nnz)⌉ for the
// factorisation. Short, wide shards (news20's 40 × 1.3k, the 64-rank
// workloads' 8 rows) route exact; 32-row shards of ≈ 200 nonzeros and the
// reference optimum's whole-dataset solves stay on CG, where the
// factorisation would cost 12 to 3 600 products per step.
func newtonCost(a *sparse.CSR) int {
	m, nnz := float64(a.NRows), float64(a.NNZ())
	if nnz == 0 || m*m*m > 24*nnz {
		return 0
	}
	return 1 + int(math.Ceil(m*m*m/(12*nnz)))
}

// decide routes the objective over a and, on the exact route, builds G.
func (gn *gramNewton) decide(a *sparse.CSR) {
	gn.decided = true
	if gn.cost = newtonCost(a); gn.cost == 0 {
		return
	}
	m := a.NRows
	gn.gram = make([]float64, m*m)
	gn.chol = make([]float64, m*m)
	gn.inv = make([]float64, m)
	gn.sd = make([]float64, m)
	gn.q = make([]float64, m)
	// G_ij = a_i·a_j for j ≤ i: scatter row i once, dot the rows before it.
	row := make([]float64, a.NCols)
	for i := 0; i < m; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			row[c] += vals[k]
		}
		for j := 0; j <= i; j++ {
			gn.gram[i*m+j] = a.RowDot(j, row)
		}
		for _, c := range cols {
			row[c] = 0
		}
	}
}

// step implements exactNewton.newtonStep for the objective over a with
// penalty rho and curvature d (nil: D = I).
func (gn *gramNewton) step(a *sparse.CSR, rho float64, d, g, s []float64) (gHg float64, cost int, ok bool) {
	if !gn.decided {
		gn.decide(a)
	}
	if gn.cost == 0 || !(rho > 0) {
		return 0, 0, false
	}
	sd, q := gn.sd, gn.q
	a.MulVec(q, g) // u = A·g
	// gᵀHg = ρ‖g‖² + Σ dᵢuᵢ²; the right-hand side D½u replaces u in q.
	var du float64
	for i, ui := range q {
		di := 1.0
		if d != nil {
			di = d[i]
		}
		du += di * ui * ui
		sd[i] = math.Sqrt(di)
		q[i] = sd[i] * ui
	}
	if !gn.factor(rho) {
		return 0, 0, false
	}
	gn.solve()
	for i := range q {
		q[i] *= sd[i]
	}
	a.MulTransVec(s, q)
	var gg float64
	inv := 1 / rho
	for i, gi := range g {
		s[i] = (s[i] - gi) * inv
		gg += gi * gi
	}
	return rho*gg + du, gn.cost, true
}

// factor writes the Cholesky factor of M = ρI + D½GD½ into gn.chol, row by
// row, forming M's entries as it goes. It reports false at a pivot that is
// not positive and finite (NaN or ±Inf in the data or the curvature).
func (gn *gramNewton) factor(rho float64) bool {
	m, sd, l, inv := len(gn.sd), gn.sd, gn.chol, gn.inv
	for i := 0; i < m; i++ {
		li := l[i*m : i*m+i+1]
		gi := gn.gram[i*m : i*m+i+1]
		for j := range li {
			v := sd[i] * gi[j] * sd[j]
			if j < i {
				li[j] = (v - dot2(li[:j], l[j*m:j*m+j])) * inv[j]
				continue
			}
			v += rho - dot2(li[:i], li[:i])
			if !(v > 0 && v <= math.MaxFloat64) {
				return false
			}
			li[i] = math.Sqrt(v)
			inv[i] = 1 / li[i]
		}
	}
	return true
}

// solve overwrites q with M⁻¹q from the factor: L·y = q, then Lᵀ·x = y.
func (gn *gramNewton) solve() {
	m, q, l, inv := len(gn.q), gn.q, gn.chol, gn.inv
	for i := 0; i < m; i++ {
		q[i] = (q[i] - dot2(l[i*m:i*m+i], q[:i])) * inv[i]
	}
	for i := m - 1; i >= 0; i-- {
		q[i] *= inv[i]
		qi := q[i]
		for k, lik := range l[i*m : i*m+i] {
			q[k] -= lik * qi
		}
	}
}

// dot2 is Σ a[k]·b[k] over two interleaved running sums, which halves the
// chain of dependent adds the factorisation's inner products wait on.
func dot2(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1 float64
	k := 0
	for ; k+1 < len(a); k += 2 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
	}
	if k < len(a) {
		s0 += a[k] * b[k]
	}
	return s0 + s1
}

// curvature implements exactNewton.curvature: sᵀHs = ρ‖s‖² + Σ dᵢ(As)ᵢ².
func (gn *gramNewton) curvature(a *sparse.CSR, rho float64, d, s []float64) float64 {
	a.MulVec(gn.q, s)
	if d == nil {
		return rho*vec.Nrm2Sq(s) + vec.Nrm2Sq(gn.q)
	}
	var ds float64
	for i, v := range gn.q {
		ds += d[i] * v * v
	}
	return rho*vec.Nrm2Sq(s) + ds
}

// dogleg fits the exact Newton step in s to the trust region ‖s‖ ≤ delta.
// Inside, s stays and dogleg reports false: the step solves H·s = −g, so
// sᵀHs = −gᵀs and the caller needs no product. Outside, s becomes a point
// on the boundary, true is returned with sᵀHs, and res counts the work:
//   - the Cauchy point sc = −(‖g‖²/gᵀHg)·g, the model's minimiser along −g,
//     is outside too: s = −(delta/‖g‖)·g, whose sᵀHs follows from gᵀHg;
//   - otherwise s = sc + τ(s − sc) with τ ∈ (0, 1], the dogleg point, whose
//     sᵀHs costs one MulVec (counted as a whole product).
//
// gnorm is ‖g‖ and sc is scratch of g's length.
func dogleg(nt exactNewton, g, s, sc []float64, gnorm, gHg, delta float64, res *TronResult) (sHs float64, atBoundary bool) {
	if !outsideRadius(s, vec.Nrm2Sq(s), delta) {
		return 0, false
	}
	alpha := gnorm / (gHg / gnorm) // ‖g‖²/gᵀHg, without forming ‖g‖²
	if alpha*gnorm >= delta {
		t := delta / gnorm
		for i, gi := range g {
			s[i] = -t * gi
		}
		return t * t * gHg, true
	}
	for i, gi := range g {
		c := -alpha * gi
		sc[i] = c
		s[i] -= c
	}
	tau := boundaryTau(sc, s, delta)
	for i, c := range sc {
		s[i] = c + tau*s[i]
	}
	res.CGIters++
	return nt.curvature(s), true
}
