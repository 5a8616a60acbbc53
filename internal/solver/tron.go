package solver

import (
	"math"

	"psrahgadmm/internal/vec"
)

// TronOptions configures the trust-region Newton solver.
type TronOptions struct {
	// MaxIter bounds outer Newton iterations. Default 50.
	MaxIter int
	// MaxCG bounds conjugate-gradient steps per Newton iteration.
	// Default 40.
	MaxCG int
	// GradTol stops when ‖g‖ ≤ GradTol·‖g₀‖. Default 1e-3 (the loose
	// inner tolerance customary for ADMM subproblems — outer ADMM
	// iterations absorb the slack).
	GradTol float64
	// GradTolAbs is an absolute stop: ‖g‖ ≤ GradTolAbs. It protects the
	// relative test when the start point is already near-optimal.
	// Default 1e-10.
	GradTolAbs float64
	// CGTol is the relative residual target of the inner CG solve.
	// Default 0.1.
	CGTol float64
}

func (o *TronOptions) fill() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.MaxCG <= 0 {
		o.MaxCG = 40
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-3
	}
	if o.CGTol <= 0 {
		o.CGTol = 0.1
	}
	if o.GradTolAbs <= 0 {
		o.GradTolAbs = 1e-10
	}
}

// TronResult reports the work a TRON solve performed. CGIters counts
// Hessian-product equivalents, the dominant cost, in the currency of one
// Hessian-vector product (two sweeps of the data): each CG product counts
// one, and an exact row-space Newton step counts its product plus its
// Cholesky's share (newtonCost), and one more when it is cut back to a
// dogleg point. The simnet compute model charges virtual time proportional
// to it.
type TronResult struct {
	Iters     int
	CGIters   int
	FunEvals  int
	F         float64
	GradNorm  float64
	Converged bool
}

// Workspace holds TRON's scratch vectors so hot callers (one subproblem
// solve per worker per ADMM iteration) avoid re-allocating seven
// dimension-sized slices per solve. A zero Workspace is valid; it grows on
// first use and is reused when the dimension matches.
type Workspace struct {
	g, s, r, d, hd, xNew, gNew []float64
}

func (ws *Workspace) ensure(n int) {
	if len(ws.g) == n {
		return
	}
	ws.g = make([]float64, n)
	ws.s = make([]float64, n)
	ws.r = make([]float64, n)
	ws.d = make([]float64, n)
	ws.hd = make([]float64, n)
	ws.xNew = make([]float64, n)
	ws.gNew = make([]float64, n)
}

// TRON minimizes obj starting from x (updated in place) with the
// trust-region Newton method of Lin & Moré: an inner Steihaug conjugate
// gradient solve truncated at the trust boundary, and the classic
// ratio-based radius update.
//
// A *LogisticProx over a short, wide matrix (one whose m×m factorisation
// costs at most two Hessian products, see newtonCost) takes the exact
// Newton step instead of the CG solve, through its row space (gramNewton),
// cut back to the dogleg point when it leaves the trust region; ρ ≤ 0 or a
// non-positive pivot takes the CG step. MaxCG and CGTol bound only CG
// steps.
//
// A *LogisticProx whose data matrix leaves columns untouched is solved
// over the touched columns only (see restriction): the Newton solve runs
// at the support's dimension and every other coordinate gets its closed
// form. TronResult then reports the compact solve's Iters, CGIters and
// FunEvals, the whole objective's F and the full gradient norm at the
// returned x, and the relative stop ‖g‖ ≤ GradTol·‖g₀‖ is relative to the
// start gradient on the support, which is internal/core's semantics
// (off-support the start point does not matter: the coordinate is solved
// exactly from anywhere). There is no way to ask for the full-dimension
// solve over untouched columns.
func TRON(obj Objective, x []float64, opts TronOptions) TronResult {
	var ws Workspace
	return TRONWorkspace(obj, x, opts, &ws)
}

// TRONWorkspace is TRON with caller-owned scratch (see Workspace). A
// restricted solve runs on scratch the objective owns and leaves ws alone.
func TRONWorkspace(obj Objective, x []float64, opts TronOptions, ws *Workspace) TronResult {
	if len(x) != obj.Dim() {
		panic("solver: TRON x length mismatch")
	}
	opts.fill()
	if lp, ok := obj.(*LogisticProx); ok {
		if res, ok := lp.solveRestricted(x, opts); ok {
			return res
		}
	}
	return tron(obj, x, opts, ws)
}

// tron is the trust-region Newton body over all of obj's variables; opts
// arrive filled and x has obj's dimension.
func tron(obj Objective, x []float64, opts TronOptions, ws *Workspace) TronResult {
	ws.ensure(len(x))
	g, gNew := ws.g, ws.gNew
	s, hd, xNew := ws.s, ws.hd, ws.xNew

	var res TronResult
	f := obj.Eval(x, g)
	res.FunEvals++
	gnorm0 := vec.Nrm2(g)
	gnorm := gnorm0
	converged := func() bool {
		return gnorm <= opts.GradTol*gnorm0 || gnorm <= opts.GradTolAbs
	}
	if converged() {
		res.F = f
		res.GradNorm = gnorm
		res.Converged = true
		return res
	}
	delta := gnorm0
	newton, _ := obj.(*LogisticProx)

	// Radius update constants from Lin & Moré.
	const (
		eta0 = 1e-4
		eta1 = 0.25
		eta2 = 0.75
	)
	const (
		sigma1 = 0.25
		sigma2 = 0.5
		sigma3 = 4.0
	)

	for res.Iters = 0; res.Iters < opts.MaxIter; res.Iters++ {
		if converged() {
			res.Converged = true
			break
		}

		// The step: exact Newton fitted to the trust region where the
		// objective solves its system in row space, else Steihaug CG
		// (H s ≈ −g within the region) and a product for sᵀHs.
		var sHs float64
		exact, atBoundary := false, false
		if newton != nil {
			var gHg float64
			var cost int
			if gHg, cost, exact = newton.newtonStep(g, s); exact {
				res.CGIters += cost
				sHs, atBoundary = dogleg(newton, g, s, ws.d, gnorm, gHg, delta, &res)
			}
		}
		if !exact {
			atBoundary = steihaugCG(obj, g, s, ws.r, ws.d, hd, delta, opts, &res)
			sHs = obj.HessVec(s, hd)
			res.CGIters++
		}
		// One pass for gᵀs and xNew = x + s.
		var gs float64
		for i, si := range s {
			gs += g[i] * si
			xNew[i] = x[i] + si
		}
		if exact && !atBoundary {
			sHs = -gs // H s = −g
		}
		// Predicted reduction: −gᵀs − ½ sᵀHs.
		pred := -(gs + 0.5*sHs)

		fNew := obj.Eval(xNew, gNew)
		res.FunEvals++
		actual := f - fNew

		snorm := vec.Nrm2(s)
		// Radius update.
		var ratio float64
		if pred > 0 {
			ratio = actual / pred
		} else {
			// Non-positive predicted reduction: the model is unreliable;
			// treat as failure and shrink.
			ratio = -1
		}
		switch {
		case ratio < eta1:
			delta = math.Max(sigma1*delta, math.Min(sigma2*snorm, delta*sigma2))
		case ratio < eta2:
			// keep delta
		default:
			if atBoundary {
				delta = math.Min(sigma3*delta, math.Max(delta, 2*snorm))
			}
		}

		if ratio > eta0 && actual > 0 {
			copy(x, xNew)
			g, gNew = gNew, g
			f = fNew
			gnorm = vec.Nrm2(g)
		}
		if delta <= 1e-12*gnorm0 || math.IsNaN(f) {
			break
		}
	}
	res.F = f
	res.GradNorm = gnorm
	if converged() {
		res.Converged = true
	}
	return res
}

// steihaugCG approximately solves H s = −g inside ‖s‖ ≤ delta. It writes
// the step into s, counts its Hessian-vector products in res.CGIters and
// reports whether the step hit the trust boundary. r, d, hd are
// caller-provided scratch; r is left unspecified on a boundary exit. Each
// step rounds every element and sum as the seven vec calls per step it
// replaced did (DESIGN.md §3.3, "TRON's CG").
func steihaugCG(obj Objective, g, s, r, d, hd []float64, delta float64, opts TronOptions, res *TronResult) bool {
	s, r, d, hd = s[:len(g)], r[:len(g)], d[:len(g)], hd[:len(g)]
	var rsq float64
	for i, gi := range g {
		ri := -gi
		s[i], r[i], d[i] = 0, ri, ri
		rsq += ri * ri
	}
	tol := opts.CGTol * math.Sqrt(rsq)

	for it := 0; it < opts.MaxCG; it++ {
		if math.Sqrt(rsq) <= tol {
			return false
		}
		dhd := obj.HessVec(d, hd)
		res.CGIters++
		if dhd <= 0 {
			// Negative curvature: walk to the boundary along d.
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			return true
		}
		alpha := rsq / dhd
		// Tentative step s += α·d, and r −= α·hd ahead of the boundary
		// test. α = 0 (as when dhd overflows) leaves both alone, as Axpy
		// does: 0·Inf would be NaN, and −0 + 0 is +0.
		var ssq, rsqNew float64
		if alpha == 0 {
			ssq, rsqNew = vec.Nrm2Sq(s), rsq
		} else {
			nalpha := -alpha
			for i, di := range d {
				si := s[i] + alpha*di
				s[i] = si
				ssq += si * si
				ri := r[i] + nalpha*hd[i]
				r[i] = ri
				rsqNew += ri * ri
			}
		}
		if outsideRadius(s, ssq, delta) {
			// Retract and project onto the boundary.
			vec.Axpy(-alpha, d, s)
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			return true
		}
		beta := rsqNew / rsq
		rsq = rsqNew
		for i, ri := range r {
			d[i] = ri + beta*d[i]
		}
	}
	return false
}

// outsideRadius is vec.Nrm2(s) >= delta, given ssq = Σs² summed plainly.
// With ssq in [2⁻⁹⁰⁰, 2⁹⁰⁰] and len(s) < 2³¹, √ssq and Nrm2(s) are each
// within a relative 6e-7 of ‖s‖, so √ssq decides outside a relative 1e-6
// band around delta; Nrm2 decides the rest, NaN delta included.
func outsideRadius(s []float64, ssq, delta float64) bool {
	if ssq >= 0x1p-900 && ssq <= 0x1p900 {
		n := math.Sqrt(ssq)
		if n > delta*(1+1e-6) {
			return true
		}
		if n < delta*(1-1e-6) {
			return false
		}
	}
	return vec.Nrm2(s) >= delta
}

// boundaryTau returns τ ≥ 0 with ‖s + τ·d‖ = delta.
func boundaryTau(s, d []float64, delta float64) float64 {
	sd := vec.Dot(s, d)
	dd := vec.Nrm2Sq(d)
	ss := vec.Nrm2Sq(s)
	if dd == 0 {
		return 0
	}
	disc := sd*sd + dd*(delta*delta-ss)
	if disc < 0 {
		disc = 0
	}
	return (-sd + math.Sqrt(disc)) / dd
}
