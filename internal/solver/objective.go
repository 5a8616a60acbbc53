// Package solver provides the smooth-subproblem machinery of consensus
// ADMM: the L2-prox-regularized logistic loss of the paper's x-update, a
// trust-region Newton solver (TRON, the same algorithm LIBLINEAR uses and
// the paper's subproblem solver, ref. [14]), and the proximal operators
// used by the z-update.
package solver

import (
	"math"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// Objective is a twice-differentiable function with Hessian-vector
// products, the contract TRON needs. Implementations cache curvature state
// from the most recent Eval; HessVec applies the Hessian at that point.
type Objective interface {
	// Dim returns the number of variables.
	Dim() int
	// Eval returns f(x) and writes the gradient into g (length Dim).
	Eval(x, g []float64) float64
	// HessVec writes H·v into hv, where H is the Hessian at the point of
	// the last Eval call, and returns vᵀ·hv, rounded as vec.Dot(v, hv) on
	// the finished hv: TRON reads it instead of a second sweep.
	HessVec(v, hv []float64) float64
}

// LogLoss returns log(1 + e^{-m}) computed without overflow for any m.
func LogLoss(margin float64) float64 {
	if margin >= 0 {
		return math.Log1p(math.Exp(-margin))
	}
	return -margin + math.Log1p(math.Exp(margin))
}

// Sigmoid returns 1/(1+e^{-t}) without overflow.
func Sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// LogisticProx is the ADMM x-subproblem objective of worker i for
// L1-regularized logistic regression (paper eq. 4):
//
//	f(x) = Σ_j log(1 + exp(-b_j·a_jᵀx)) + yᵀx + (ρ/2)·‖x − z‖²
//
// where (a_j, b_j) are the worker's data shard and (y, z) the current dual
// and consensus iterates. The loss term is the local f_i; the linear and
// quadratic terms come from the augmented Lagrangian.
type LogisticProx struct {
	Data   *sparse.CSR
	Labels []float64 // entries in {-1, +1}
	Rho    float64
	Y, Z   []float64

	d    []float64 // σ(1−σ) curvature cache
	av   []float64 // A·x, then c, at the last Eval; scratch for HessVec
	atc  []float64 // Aᵀc at the last Eval
	loss float64   // the rows' loss at the last Eval
	hit  bool      // the last Eval was served from acc

	acc         accepted   // the data terms at TRON's iterate
	restriction            // TRON solves over Data's column support
	newton      gramNewton // the row-space loop on short shards
}

// accepted holds the data terms of the point TRON last took as its iterate:
// the point itself, Σ log(1 + e^{−b·aᵀx}), D = σ(1−σ) and Aᵀc. None of them
// reads Y, Z or Rho, so they stay valid while the caller changes those
// between solves, and an Eval at a bit-identical x (the next solve's warm
// start) returns from them, bit for bit what the two sweeps and m exps
// would have given, in one O(n) pass.
type accepted struct {
	ok     bool
	x      []float64
	loss   float64
	d, atc []float64
}

// NewLogisticProx constructs the subproblem objective. Labels must match
// Data.NRows; Y and Z must match Data.NCols and may be updated in place by
// the caller between TRON solves, as may Rho (which a solve needs positive).
// Data and Labels stay fixed: the restriction, G and the accepted point's
// terms are computed from them and kept.
func NewLogisticProx(data *sparse.CSR, labels []float64, rho float64, y, z []float64) *LogisticProx {
	if len(labels) != data.NRows {
		panic("solver: labels length != rows")
	}
	if len(y) != data.NCols || len(z) != data.NCols {
		panic("solver: y/z length != cols")
	}
	return &LogisticProx{
		Data:   data,
		Labels: labels,
		Rho:    rho,
		Y:      y,
		Z:      z,
		d:      make([]float64, data.NRows),
		av:     make([]float64, data.NRows),
	}
}

// Dim implements Objective.
func (o *LogisticProx) Dim() int { return o.Data.NCols }

// Eval implements Objective. At the point TRON last accepted it reuses that
// point's data terms (see accepted) and leaves their D for HessVec.
func (o *LogisticProx) Eval(x, g []float64) float64 {
	atc := o.acc.atc
	if o.hit = o.acc.ok && identical(o.acc.x, x); o.hit {
		copy(o.d, o.acc.d)
		o.loss = o.acc.loss
	} else {
		if len(o.atc) != len(x) {
			o.atc = make([]float64, len(x))
		}
		m := o.Data
		m.MulVec(o.av, x)
		// grad = Aᵀc + y + ρ(x−z), with c_j = −b_j·σ(−b_j·m_j).
		o.loss = logisticRows(o.Labels, o.av, o.d, o.av) // av: margins in, c out
		m.MulTransVec(o.atc, o.av)
		atc = o.atc
	}
	loss := o.loss
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] = atc[i] + (o.Y[i] + o.Rho*diff)
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
	}
	return loss
}

// accept records that TRON took x, the point of the last Eval, as its
// iterate: its data terms become acc. A point served from acc already is.
func (o *LogisticProx) accept(x []float64) {
	if o.hit {
		return
	}
	a := &o.acc
	a.ok = true
	a.x = append(a.x[:0], x...)
	a.d = append(a.d[:0], o.d...)
	a.loss = o.loss
	a.atc, o.atc = o.atc, a.atc
}

// identical reports whether a and b hold the same bits: +0 does not match
// −0, and a NaN matches only its own payload.
func identical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// logisticRows is the per-row kernel of Eval and the row-space loop: at
// margins u it returns Σ log(1 + e^{−b_j·u_j}) and writes the curvature
// d_j = σ(1−σ) and the coefficient c_j = −b_j·σ, σ = σ(−b_j·u_j). c may be
// u: row j reads u_j before it writes c_j. LogLoss
// and Sigmoid, bit for bit, from one exp(−|b_j·u_j|) per row.
func logisticRows(labels, u, d, c []float64) float64 {
	var loss float64
	for j, b := range labels {
		bm := b * u[j]
		var s float64
		if bm >= 0 {
			e := math.Exp(-bm)
			loss += math.Log1p(e)
			s = e / (1 + e)
		} else {
			e := math.Exp(bm)
			loss += -bm + math.Log1p(e)
			s = 1 / (1 + e)
		}
		d[j] = s * (1 - s)
		c[j] = -b * s
	}
	return loss
}

// HessVec implements Objective: hv = Aᵀ·D·A·v + ρ·v with D from last Eval.
func (o *LogisticProx) HessVec(v, hv []float64) float64 {
	m := o.Data
	m.MulVec(o.av, v)
	for j := range o.av {
		o.av[j] *= o.d[j]
	}
	m.MulTransVec(hv, o.av)
	return addProxCurvature(o.Rho, v, hv)
}

// addProxCurvature finishes hv += ρ·v and returns vᵀ·hv in one pass,
// rounded as vec.Axpy then vec.Dot; ρ = 0 leaves hv alone, as Axpy does.
func addProxCurvature(rho float64, v, hv []float64) float64 {
	if rho == 0 {
		return vec.Dot(v, hv)
	}
	hv = hv[:len(v)]
	var dot float64
	for i, vi := range v {
		h := hv[i] + rho*vi
		hv[i] = h
		dot += vi * h
	}
	return dot
}

// LocalLoss returns only the data-fit part Σ log(1+exp(−b·aᵀx)) at x,
// without the augmented-Lagrangian terms. The engine sums this across
// workers to report the paper's global objective (eq. 17).
func (o *LogisticProx) LocalLoss(x []float64) float64 {
	m := o.Data
	var loss float64
	for j := 0; j < m.NRows; j++ {
		loss += LogLoss(o.Labels[j] * m.RowDot(j, x))
	}
	return loss
}

// restriction is the one fact TRON needs about a prox-augmented loss over a
// CSR, ℓ(Ax) + yᵀx + (ρ/2)‖x − z‖²: outside A's column support it is
// separable, coordinate j contributing y_j·x_j + (ρ/2)(x_j − z_j)² and
// nothing else, so the minimiser there is the closed form
// x_j = z_j − y_j/ρ and only the touched columns need a Newton solve. Per
// worker, dense work then scales with the shard's support rather than the
// model's dimension, which is what makes high-dimensional sparse problems
// tractable (LIBLINEAR-style sparse solvers make the same move).
//
// The ADMM invariant behind it: off-support the recursion gives
// x_j = z_j − y_j/ρ and y_j⁺ = y_j + ρ(x_j − z_j⁺) = ρ(z_j − z_j⁺), which
// is non-zero whenever z_j moves, but the contribution the consensus sees
// is w_j = y_j + ρ·x_j = ρ·z_j whatever (x_j, y_j) are. A caller holding
// full-dimension x and y (benchmark/mesh.go; core's ReferenceOptimum only
// evaluates one) carries the pair above; core's worker, which core.Rank
// runs in psra-worker, stores no off-support state and emits ρ·z_j, the
// representative (x_j, y_j) = (z_j, 0) of the same class. Both feed the
// consensus the same w, up to the rounding of y_j + ρ(z_j − y_j/ρ).
//
// LogisticProx embeds one restriction. It is built at the first solve, so
// an objective that is only ever evaluated pays nothing, and it holds the
// compact twin (the same loss over sparse.CSR.CompactColumns' matrix, whose
// Y and Z are the gather buffers below) plus the solve's scratch, so
// steady-state solves allocate nothing.
type restriction struct {
	built      bool
	active     []int32       // touched columns, sorted; nil when none is untouched
	twin       *LogisticProx // nil when every column is touched
	xA, yA, zA []float64     // x, y, z gathered onto active
	ws         Workspace     // the compact solve's scratch
}

// solveRestricted gathers (x, y, z) onto the data's touched columns, runs
// TRON there on the compact twin, writes the closed form everywhere else
// and scatters the solved coordinates back; ok is false when every column
// is touched and the caller must solve at full dimension. Y, Z and Rho are
// read afresh on every call: the caller mutates them between solves. On the
// touched columns the result is, bit for bit, what TRONWorkspace returns
// for the twin from the gathered start; with no touched column there is no
// Newton solve at all.
func (o *LogisticProx) solveRestricted(x []float64, opts TronOptions) (TronResult, bool) {
	s := &o.restriction
	if !s.built {
		s.built = true
		if active, compact := o.Data.CompactColumns(); compact != o.Data {
			s.active = active
			s.xA = make([]float64, len(active))
			s.yA = make([]float64, len(active))
			s.zA = make([]float64, len(active))
			s.twin = NewLogisticProx(compact, o.Labels, o.Rho, s.yA, s.zA)
		}
	}
	if s.twin == nil {
		return TronResult{}, false
	}
	rho, y, z := o.Rho, o.Y, o.Z
	for i, c := range s.active {
		s.xA[i], s.yA[i], s.zA[i] = x[c], y[c], z[c]
	}
	s.twin.Rho = rho
	var res TronResult
	if len(s.active) > 0 {
		res = s.twin.minimize(s.xA, opts, &s.ws)
	} else {
		res = TronResult{F: s.twin.Eval(s.xA, s.xA), Converged: true}
	}
	// Off-support the gradient y_j + ρ(x_j − z_j) vanishes at the closed
	// form, so res.GradNorm already is the full gradient norm; res.F gains
	// the separable terms to stay the whole objective at the returned x.
	res.F = writeBack(s.active, s.xA, rho, y, z, x, res.F)
	return res, true
}

// writeBack stores the solved coordinates xA at the sorted active columns
// of x and the closed form x_j = z_j − y_j/ρ at every other column,
// returning f plus the other columns' separable terms. The closed form runs
// branch-free over each gap between consecutive active columns, and the
// solved coordinate is stored after it: column order, so x and the sum
// take the same operations in the same order as a walk over every column
// that branches on membership (DESIGN.md §3.3).
func writeBack(active []int32, xA []float64, rho float64, y, z, x []float64, f float64) float64 {
	lo := 0
	for k, c := range active {
		f = closedForm(x[lo:c], y[lo:c], z[lo:c], rho, f)
		x[c] = xA[k]
		lo = int(c) + 1
	}
	return closedForm(x[lo:], y[lo:], z[lo:], rho, f)
}

// closedForm writes the untouched minimiser over one gap of columns and
// returns f plus their separable terms y_j·x_j + (ρ/2)(x_j − z_j)².
func closedForm(x, y, z []float64, rho, f float64) float64 {
	y, z = y[:len(x)], z[:len(x)]
	for j := range x {
		xj := z[j] - y[j]/rho
		diff := xj - z[j]
		x[j] = xj
		f += y[j]*xj + 0.5*rho*diff*diff
	}
	return f
}
