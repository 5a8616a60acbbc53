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

	margins []float64 // Ax cache from last Eval
	d       []float64 // σ(1−σ) curvature cache
	av      []float64 // scratch for HessVec

	restriction            // TRON solves over Data's column support
	newton      gramNewton // exact Newton steps on short shards
}

// NewLogisticProx constructs the subproblem objective. Labels must match
// Data.NRows; Y and Z must match Data.NCols and may be updated in place by
// the caller between TRON solves, as may Rho (which a solve needs positive).
func NewLogisticProx(data *sparse.CSR, labels []float64, rho float64, y, z []float64) *LogisticProx {
	if len(labels) != data.NRows {
		panic("solver: labels length != rows")
	}
	if len(y) != data.NCols || len(z) != data.NCols {
		panic("solver: y/z length != cols")
	}
	return &LogisticProx{
		Data:    data,
		Labels:  labels,
		Rho:     rho,
		Y:       y,
		Z:       z,
		margins: make([]float64, data.NRows),
		d:       make([]float64, data.NRows),
		av:      make([]float64, data.NRows),
	}
}

// Dim implements Objective.
func (o *LogisticProx) Dim() int { return o.Data.NCols }

// Eval implements Objective.
func (o *LogisticProx) Eval(x, g []float64) float64 {
	m := o.Data
	m.MulVec(o.margins, x)
	var loss float64
	// grad = Aᵀc + y + ρ(x−z), with c_j = −b_j·σ(−b_j·m_j).
	for j := 0; j < m.NRows; j++ {
		bm := o.Labels[j] * o.margins[j]
		// LogLoss(bm) and s = Sigmoid(−bm), bit for bit, from one exp(−|bm|).
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
		o.d[j] = s * (1 - s)
		o.av[j] = -o.Labels[j] * s // reuse av as c scratch
	}
	m.MulTransVec(g, o.av)
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] += o.Y[i] + o.Rho*diff
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
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

// newtonStep writes s = −H⁻¹g, H the Hessian at the point of the last
// Eval, and returns gᵀHg and the step's cost in Hessian-product
// equivalents. ok is false when the shape routes to CG, ρ is not positive,
// or a pivot is not positive and finite; s is then unspecified and the
// caller takes a CG step instead (see gramNewton).
func (o *LogisticProx) newtonStep(g, s []float64) (gHg float64, cost int, ok bool) {
	return o.newton.step(o.Data, o.Rho, o.d, g, s)
}

// curvature returns sᵀHs at the point of the last Eval from one A·s.
func (o *LogisticProx) curvature(s []float64) float64 {
	return o.newton.curvature(o.Data, o.Rho, o.d, s)
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
		res = tron(s.twin, s.xA, opts, &s.ws)
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
