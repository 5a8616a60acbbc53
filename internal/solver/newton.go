package solver

import (
	"math"

	"psrahgadmm/internal/sparse"
)

// gramNewton is TRON's exact route for a LogisticProx over a short, wide
// CSR A (m×n, m small): the whole trust-region loop runs in the
// (m+1)-dimensional subspace x₀ + span{e₀} + range(Aᵀ) that holds every
// iterate, where x₀ = z − y/ρ is the prox centre and e₀ = x_start − x₀. A
// vector there is v = θ_v·e₀ + Aᵀβ_v, so the iterate is (θ, β), the
// gradient ρ(x − x₀) + Aᵀc is (ρθ, c + ρβ), and every inner product is
//
//	⟨v, w⟩ = θ_w(θ_v‖e₀‖² + (Ae₀)ᵀβ_v) + β_wᵀ(A·v),  A·v = θ_v·Ae₀ + Gβ_v,
//
// with G = AAᵀ. The Hessian is H = ρI + AᵀDA (D = diag(d), σ(1−σ) at the
// last evaluated point), and Woodbury gives the Newton step
//
//	s = −H⁻¹g = (AᵀD½q − g)/ρ,  M·q = D½·A·g,  M = ρI + D½GD½,
//
// so a step costs an m×m Cholesky of M, two products with G and m exps,
// and nothing of size n or nnz. G is built once per objective (the data
// never changes); a solve adds one pass over the columns, two MulVec and
// one MulTransVec to write x back (DESIGN.md §3.3). The route is a fixed
// cost comparison on the objective's own matrix (newtonCost); every other
// shape keeps Steihaug CG. Scratch is the objective's, so steady-state
// solves allocate nothing.
type gramNewton struct {
	decided bool
	cost    int       // Hessian-product equivalents of one step; 0 routes to CG
	gram    []float64 // G = AAᵀ, m×m row-major, full
	chol    []float64 // the Cholesky factor L of M, m×m row-major, lower triangle
	inv     []float64 // 1/Lᵢᵢ
	sd, q   []float64 // D½ and the m-vector being solved
	// The loop's m-vectors: the margins at the iterate and at the trial,
	// Ae₀, β, the gradient's γ = c + ρβ and A·g, and the step's β_s and A·s.
	u, uNew, ae, beta, gam, ag, sb, as []float64
}

// newtonCost returns what one row-space Newton step over a costs in
// Hessian products (two CSR sweeps, 2·nnz flops, simnet.WorkUnits'
// currency), or 0 when the step should not be taken. The route is exact iff
// the Cholesky's m³/6 flops cost at most two products, m³/6 ≤ 4·nnz; the
// step then counts its one product plus ⌈m³/(12·nnz)⌉ for the
// factorisation. Short, wide shards (news20's 40 × 1.3k, the 64-rank
// workloads' 8 rows) route exact; 32-row shards of ≈ 200 nonzeros and the
// reference optimum's whole-dataset solves stay on CG, where the
// factorisation would cost 12 to 3 600 products per step. So does a shard
// with no more columns than rows, whatever it costs: its G = AAᵀ is
// singular, with a null space that is not coordinate-aligned, and the
// Gram-form inner products lose the low bits the x-space loop keeps.
func newtonCost(a *sparse.CSR) int {
	m, nnz := float64(a.NRows), float64(a.NNZ())
	if nnz == 0 || a.NCols <= a.NRows || m*m*m > 24*nnz {
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
	vecs := make([]float64, 11*m)
	for _, v := range []*[]float64{&gn.inv, &gn.sd, &gn.q, &gn.u, &gn.uNew, &gn.ae, &gn.beta, &gn.gam, &gn.ag, &gn.sb, &gn.as} {
		*v, vecs = vecs[:m:m], vecs[m:]
	}
	// G_ij = a_i·a_j for j ≤ i: scatter row i once, dot the rows before it;
	// the upper triangle is the mirror.
	row := make([]float64, a.NCols)
	for i := 0; i < m; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			row[c] += vals[k]
		}
		for j := 0; j <= i; j++ {
			gn.gram[i*m+j] = a.RowDot(j, row)
			gn.gram[j*m+i] = gn.gram[i*m+j]
		}
		for _, c := range cols {
			row[c] = 0
		}
	}
}

// rowTron is TRON over a LogisticProx that routes exact (newtonCost > 0,
// ρ > 0), from x, in row coordinates (see gramNewton). It counts Iters,
// CGIters and FunEvals as the x-space loop did: a step is its newtonCost,
// plus one product when it is cut back to a dogleg point. D is refreshed at
// every trial point, rejected ones included, as Eval does on the CG route.
// done is false when the objective routes to CG, or when a factor fails (a
// pivot that is not positive and finite); x then holds the iterate and res
// the work so far, and the caller finishes on the CG loop.
func (o *LogisticProx) rowTron(x []float64, opts TronOptions, ws *Workspace) (res TronResult, done bool) {
	gn, a, rho := &o.newton, o.Data, o.Rho
	if !gn.decided {
		gn.decide(a)
	}
	if gn.cost == 0 || !(rho > 0) {
		return res, false
	}
	ws.ensure(len(x))
	x0, e := ws.xNew, ws.d // the CG loop's scratch, unused until a fallback
	ae, beta, gam, ag, sb, as, d, c := gn.ae, gn.beta, gn.gam, gn.ag, gn.sb, gn.as, o.d, o.av

	// The start, with Eval's f bit for bit, and its prox part
	// Q = yᵀx + (ρ/2)‖x − z‖².
	a.MulVec(gn.u, x)
	loss := logisticRows(o.Labels, gn.u, d, c)
	f := loss
	var prox, ee float64
	for i, xi := range x {
		diff := xi - o.Z[i]
		qi := o.Y[i]*xi + 0.5*rho*diff*diff
		f += qi
		prox += qi
		x0[i] = o.Z[i] - o.Y[i]/rho
		e[i] = xi - x0[i]
		ee += e[i] * e[i]
	}
	a.MulVec(ae, e)
	res.FunEvals++
	theta := 1.0
	clear(beta)
	copy(gam, c)
	// gradient sets A·g for g = (ρθ, γ) and returns ⟨g, g⟩ and
	// pg = ρθ‖e₀‖² + (Ae₀)ᵀγ, which gives ⟨g, s⟩ = θ_s·pg + β_sᵀ(A·g).
	gradient := func() (gg, pg float64) {
		gt := rho * theta
		gn.image(ag, gt, gam)
		pg = gt*ee + dot2(ae, gam)
		return math.Max(0, gt*pg+dot2(gam, ag)), pg
	}
	gg, pg := gradient()
	gnorm0 := math.Sqrt(gg)
	gnorm := gnorm0
	converged := func() bool {
		return gnorm <= opts.GradTol*gnorm0 || gnorm <= gradTolAbs
	}
	if converged() {
		res.F, res.GradNorm, res.Converged = f, gnorm, true
		return res, true
	}
	delta := gnorm0
	moved := false
	// sums returns, for the step (st, sb) with A·s in as, ⟨s, s⟩, ⟨g, s⟩,
	// ⟨x − x₀, s⟩ and Σ dᵢ(A·s)ᵢ² from one pass over the rows.
	sums := func(st float64) (ss, gs, xs, das float64) {
		var aeS, sS, gS, bS float64
		for i, v := range as {
			aeS += ae[i] * sb[i]
			sS += sb[i] * v
			gS += ag[i] * sb[i]
			bS += beta[i] * v
			das += d[i] * v * v
		}
		ps := st*ee + aeS
		return math.Max(0, st*ps+sS), st*pg + gS, theta*ps + bS, das
	}

	for res.Iters = 0; res.Iters < opts.MaxIter; res.Iters++ {
		if converged() {
			res.Converged = true
			break
		}
		// The Newton step: q = D½·A·g, solved by M, then
		// s = (−θ, (D½q − γ)/ρ) and gᵀHg = ρ‖g‖² + Σ dᵢ(A·g)ᵢ².
		var du float64
		for i, v := range ag {
			du += d[i] * v * v
			gn.sd[i] = math.Sqrt(d[i])
			gn.q[i] = gn.sd[i] * v
		}
		if !gn.factor(rho) {
			if moved {
				o.storeIterate(x, x0, e, theta, 0)
			}
			return res, false
		}
		gn.solve()
		inv := 1 / rho
		for i, v := range gn.q {
			sb[i] = (v*gn.sd[i] - gam[i]) * inv
		}
		st := -theta
		gn.image(as, st, sb)
		res.CGIters += gn.cost
		gHg := rho*gg + du
		ss, gs, xs, das := sums(st)

		// Fit it to the trust region: the step itself inside (sᵀHs = −gᵀs),
		// else −(Δ/‖g‖)·g when the Cauchy point sc = −(‖g‖²/gᵀHg)·g is
		// outside too, else the dogleg point sc + τ(s − sc), whose sᵀHs
		// costs a product.
		atBoundary := math.Sqrt(ss) >= delta
		sHs := -gs
		if atBoundary {
			alpha := gnorm / (gHg / gnorm) // ‖g‖²/gᵀHg, without forming ‖g‖²
			if alpha*gnorm >= delta {
				t := delta / gnorm
				st = -t * rho * theta
				for i := range sb {
					sb[i], as[i] = -t*gam[i], -t*ag[i]
				}
				sHs = t * t * gHg
				ss, gs, xs, _ = sums(st)
			} else {
				// τ from ⟨sc, s − sc⟩, ‖s − sc‖² and ‖sc‖² = α²‖g‖².
				ct, dt := -alpha*rho*theta, st+alpha*rho*theta
				var aeD, cD, dD float64
				for i, v := range as {
					db, ad := sb[i]+alpha*gam[i], v+alpha*ag[i]
					aeD += ae[i] * db
					cD -= alpha * gam[i] * ad
					dD += db * ad
				}
				pd := dt*ee + aeD
				tau := boundaryStep(ct*pd+cD, math.Max(0, dt*pd+dD), alpha*alpha*gg, delta)
				st = ct + tau*dt
				for i := range sb {
					sb[i] = -alpha*gam[i] + tau*(sb[i]+alpha*gam[i])
					as[i] = -alpha*ag[i] + tau*(as[i]+alpha*ag[i])
				}
				res.CGIters++
				ss, gs, xs, das = sums(st)
				sHs = rho*ss + das
			}
		}
		pred := -(gs + 0.5*sHs)

		// The trial point: margins u + A·s, the rows' loss, curvature and
		// coefficients, and Q(x + s) = Q(x) + ρ⟨x − x₀, s⟩ + (ρ/2)‖s‖².
		for i, v := range as {
			gn.uNew[i] = gn.u[i] + v
		}
		lossNew := logisticRows(o.Labels, gn.uNew, d, c)
		proxNew := prox + rho*xs + 0.5*rho*ss
		fNew := lossNew + proxNew
		res.FunEvals++

		var accept bool
		delta, accept = trustRegion(delta, pred, f-fNew, atBoundary, func() float64 { return math.Sqrt(ss) })
		if accept {
			theta += st
			for i, v := range sb {
				beta[i] += v
				gam[i] = c[i] + rho*beta[i]
			}
			gn.u, gn.uNew = gn.uNew, gn.u
			f, loss, prox, moved = fNew, lossNew, proxNew, true
			gg, pg = gradient()
			gnorm = math.Sqrt(gg)
		}
		if delta <= 1e-12*gnorm0 || math.IsNaN(f) {
			break
		}
	}
	if moved {
		f = o.storeIterate(x, x0, e, theta, loss)
	}
	res.F, res.GradNorm = f, gnorm
	if converged() {
		res.Converged = true
	}
	return res, true
}

// image writes dst = t·Ae₀ + G·v, the row image A·(t·e₀ + Aᵀv).
func (gn *gramNewton) image(dst []float64, t float64, v []float64) {
	m := len(v)
	for i := range dst {
		dst[i] = t*gn.ae[i] + dot2(gn.gram[i*m:i*m+m], v)
	}
}

// storeIterate writes the iterate x = x₀ + θ·e₀ + Aᵀβ and returns f(x) from
// its rows' loss, adding the columns' terms as Eval does.
func (o *LogisticProx) storeIterate(x, x0, e []float64, theta, loss float64) float64 {
	o.Data.MulTransVec(x, o.newton.beta)
	for i, v := range x {
		xi := x0[i] + theta*e[i] + v
		diff := xi - o.Z[i]
		x[i] = xi
		loss += o.Y[i]*xi + 0.5*o.Rho*diff*diff
	}
	return loss
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
