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

// TronResult reports the work a TRON solve performed. CGIters is the total
// Hessian-vector product count, the dominant cost; the simnet compute model
// charges virtual time proportional to it.
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
// A prox objective of this package whose data matrix leaves columns
// untouched is solved over the touched columns only (see restriction): the
// Newton solve runs at the support's dimension and every other coordinate
// gets its closed form. TronResult then reports the compact solve's Iters,
// CGIters and FunEvals, the whole objective's F and the full gradient norm
// at the returned x, and the relative stop ‖g‖ ≤ GradTol·‖g₀‖ is relative
// to the start gradient on the support, which is internal/core's semantics
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
	if r, ok := obj.(restricted); ok {
		if res, ok := r.solveRestricted(x, opts); ok {
			return res
		}
	}
	return tron(obj, x, opts, ws)
}

// tron is the trust-region Newton body over all of obj's variables; opts
// arrive filled and x has obj's dimension.
func tron(obj Objective, x []float64, opts TronOptions, ws *Workspace) TronResult {
	ws.ensure(len(x))
	g := ws.g
	s := ws.s
	r := ws.r
	d := ws.d
	hd := ws.hd
	xNew := ws.xNew
	gNew := ws.gNew

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

		// Steihaug CG: solve H s ≈ −g within the trust region.
		atBoundary := steihaugCG(obj, g, s, r, d, hd, delta, opts, &res)

		// Predicted reduction: −gᵀs − ½ sᵀHs. Using H s = −(r − (−g)) ⇒
		// sᵀHs = −sᵀ(r+g)... compute directly for clarity and safety.
		obj.HessVec(s, hd)
		res.CGIters++
		pred := -(vec.Dot(g, s) + 0.5*vec.Dot(s, hd))

		vec.Add(xNew, x, s)
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
			copy(g, gNew)
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
// caller-provided scratch.
func steihaugCG(obj Objective, g, s, r, d, hd []float64, delta float64, opts TronOptions, res *TronResult) bool {
	vec.Zero(s)
	vec.ScaleTo(r, -1, g) // r = −g
	copy(d, r)
	rsq := vec.Nrm2Sq(r)
	tol := opts.CGTol * math.Sqrt(rsq)

	for it := 0; it < opts.MaxCG; it++ {
		if math.Sqrt(rsq) <= tol {
			return false
		}
		obj.HessVec(d, hd)
		res.CGIters++
		dhd := vec.Dot(d, hd)
		if dhd <= 0 {
			// Negative curvature: walk to the boundary along d.
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			return true
		}
		alpha := rsq / dhd
		// Tentative step.
		vec.Axpy(alpha, d, s)
		if vec.Nrm2(s) >= delta {
			// Retract and project onto the boundary.
			vec.Axpy(-alpha, d, s)
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			return true
		}
		vec.Axpy(-alpha, hd, r)
		rsqNew := vec.Nrm2Sq(r)
		beta := rsqNew / rsq
		rsq = rsqNew
		for i := range d {
			d[i] = r[i] + beta*d[i]
		}
	}
	return false
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
