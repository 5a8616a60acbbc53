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
}

// gradTolAbs is TRON's absolute stop, ‖g‖ ≤ gradTolAbs. It protects the
// relative test when the start point is already near-optimal.
const gradTolAbs = 1e-10

// TronResult reports the work a TRON solve performed. CGIters counts
// Hessian-product equivalents, the dominant cost, in the currency of one
// Hessian-vector product (two sweeps of the data): each CG product counts
// one, and an exact row-space Newton step counts newtonCost, plus one when
// it is cut back to a dogleg point, the price of the x-space step it
// replaced (DESIGN.md §3.3). The simnet compute model charges virtual time
// proportional to it.
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
// costs at most two Hessian products, see newtonCost) with ρ > 0 takes the
// exact Newton step instead of the CG solve, cut back to the dogleg point
// when it leaves the trust region, and runs the whole loop in its row space
// (gramNewton); a pivot that is not positive and finite hands the rest of
// the solve to the CG loop. MaxCG and CGTol bound only CG steps.
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
		return lp.minimize(x, opts, ws)
	}
	return tron(obj, x, opts, ws)
}

// minimize is TRON over all of o's variables: the row-space loop where o
// routes exact, else, and for the iterations a failed factor leaves, the
// CG loop.
func (o *LogisticProx) minimize(x []float64, opts TronOptions, ws *Workspace) TronResult {
	res, done := o.rowTron(x, opts, ws)
	if done {
		return res
	}
	opts.MaxIter -= res.Iters
	cg := tron(o, x, opts, ws)
	cg.Iters += res.Iters
	cg.CGIters += res.CGIters
	cg.FunEvals += res.FunEvals
	return cg
}

// Lin & Moré's acceptance and radius-update constants.
const (
	eta0, eta1, eta2       = 1e-4, 0.25, 0.75
	sigma1, sigma2, sigma3 = 0.25, 0.5, 4.0
)

// trustRegion is the rule both loops share: from the step's predicted and
// actual reductions it returns the next radius and whether the step is
// taken. snorm returns ‖s‖; only the two branches that move the radius by
// it call it.
func trustRegion(delta, pred, actual float64, atBoundary bool, snorm func() float64) (float64, bool) {
	// A non-positive predicted reduction: the model is unreliable; treat
	// it as a failure and shrink.
	ratio := -1.0
	if pred > 0 {
		ratio = actual / pred
	}
	switch {
	case ratio < eta1:
		delta = math.Max(sigma1*delta, math.Min(sigma2*snorm(), delta*sigma2))
	case ratio < eta2:
		// keep delta
	default:
		if atBoundary {
			delta = math.Min(sigma3*delta, math.Max(delta, 2*snorm()))
		}
	}
	return delta, ratio > eta0 && actual > 0
}

// tron is the trust-region Newton loop with Steihaug CG steps over all of
// obj's variables; opts arrive filled and x has obj's dimension.
func tron(obj Objective, x []float64, opts TronOptions, ws *Workspace) TronResult {
	ws.ensure(len(x))
	g, gNew := ws.g, ws.gNew
	s, r, hd, xNew := ws.s, ws.r, ws.hd, ws.xNew

	// A LogisticProx keeps the data terms of each point the loop takes,
	// the start included, so that an Eval there, the next solve's warm
	// start, sweeps no data (see accepted).
	keep, _ := obj.(*LogisticProx)
	var res TronResult
	f := obj.Eval(x, g)
	res.FunEvals++
	if keep != nil {
		keep.accept(x)
	}
	gnorm0 := vec.Nrm2(g)
	gnorm := gnorm0
	converged := func() bool {
		return gnorm <= opts.GradTol*gnorm0 || gnorm <= gradTolAbs
	}
	if converged() {
		res.F = f
		res.GradNorm = gnorm
		res.Converged = true
		return res
	}
	delta := gnorm0
	snorm := func() float64 { return vec.Nrm2(s) }

	for res.Iters = 0; res.Iters < opts.MaxIter; res.Iters++ {
		if converged() {
			res.Converged = true
			break
		}

		// The step: Steihaug CG (H s ≈ −g within the region), which leaves
		// its residual r = −g − Hs.
		atBoundary := steihaugCG(obj, g, s, r, ws.d, hd, delta, opts, &res)
		// One pass for gᵀs, sᵀr and xNew = x + s.
		var gs, sr float64
		for i, si := range s {
			gs += g[i] * si
			sr += si * r[i]
			xNew[i] = x[i] + si
		}
		// Predicted reduction −gᵀs − ½ sᵀHs, with sᵀHs = −gᵀs − sᵀr
		// (LIBLINEAR's prered), so no product of its own.
		pred := -0.5 * (gs - sr)

		fNew := obj.Eval(xNew, gNew)
		res.FunEvals++

		var accept bool
		if delta, accept = trustRegion(delta, pred, f-fNew, atBoundary, snorm); accept {
			copy(x, xNew)
			g, gNew = gNew, g
			f = fNew
			gnorm = vec.Nrm2(g)
			if keep != nil {
				keep.accept(x)
			}
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
// the step into s and its residual r = −g − Hs into r, on every exit, counts
// its Hessian-vector products in res.CGIters and reports whether the step
// hit the trust boundary. d and hd are caller-provided scratch. Each step
// rounds every element of s and d and every sum as the seven vec calls per
// step it replaced did (DESIGN.md §3.3, "TRON's CG").
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
			vec.Axpy(-tau, hd, r)
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
			// Retract s and r, then project onto the boundary.
			vec.Axpy(-alpha, d, s)
			vec.Axpy(alpha, hd, r)
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			vec.Axpy(-tau, hd, r)
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
	return boundaryStep(vec.Dot(s, d), vec.Nrm2Sq(d), vec.Nrm2Sq(s), delta)
}

// boundaryStep is boundaryTau from sd = sᵀd, dd = ‖d‖² and ss = ‖s‖².
func boundaryStep(sd, dd, ss, delta float64) float64 {
	if dd == 0 {
		return 0
	}
	disc := sd*sd + dd*(delta*delta-ss)
	if disc < 0 {
		disc = 0
	}
	return (-sd + math.Sqrt(disc)) / dd
}
