// Package solver provides the smooth-subproblem machinery of consensus
// ADMM: twice-differentiable objectives (L2-prox-regularized logistic loss
// and least squares), a trust-region Newton solver (TRON, the same
// algorithm LIBLINEAR uses and the paper's subproblem solver, ref. [14]),
// and the proximal operators used by the z-update.
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

func (o *LogisticProx) newtonStep(g, s []float64) (float64, int, bool) {
	return o.newton.step(o.Data, o.Rho, o.d, g, s)
}

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

func (o *LogisticProx) solveRestricted(x []float64, opts TronOptions) (TronResult, bool) {
	return o.solve(o, o.Data, o.Rho, o.Y, o.Z, x, opts)
}

func (o *LogisticProx) over(compact *sparse.CSR, y, z []float64) (Objective, *float64) {
	t := NewLogisticProx(compact, o.Labels, o.Rho, y, z)
	return t, &t.Rho
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

// LeastSquaresProx is the ADMM x-subproblem for consensus lasso:
//
//	f(x) = ½‖Ax − b‖² + yᵀx + (ρ/2)‖x − z‖²
//
// Used by the lasso example to show the engine is objective-generic.
type LeastSquaresProx struct {
	Data *sparse.CSR
	B    []float64
	Rho  float64
	Y, Z []float64

	resid []float64
	av    []float64

	restriction            // TRON solves over Data's column support
	newton      gramNewton // exact Newton steps on short shards
}

// NewLeastSquaresProx constructs the lasso subproblem objective.
func NewLeastSquaresProx(data *sparse.CSR, b []float64, rho float64, y, z []float64) *LeastSquaresProx {
	if len(b) != data.NRows {
		panic("solver: b length != rows")
	}
	if len(y) != data.NCols || len(z) != data.NCols {
		panic("solver: y/z length != cols")
	}
	return &LeastSquaresProx{
		Data:  data,
		B:     b,
		Rho:   rho,
		Y:     y,
		Z:     z,
		resid: make([]float64, data.NRows),
		av:    make([]float64, data.NRows),
	}
}

// Dim implements Objective.
func (o *LeastSquaresProx) Dim() int { return o.Data.NCols }

// Eval implements Objective.
func (o *LeastSquaresProx) Eval(x, g []float64) float64 {
	m := o.Data
	m.MulVec(o.resid, x)
	var loss float64
	for j := range o.resid {
		o.resid[j] -= o.B[j]
		loss += 0.5 * o.resid[j] * o.resid[j]
	}
	m.MulTransVec(g, o.resid)
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] += o.Y[i] + o.Rho*diff
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
	}
	return loss
}

// HessVec implements Objective: hv = AᵀAv + ρv.
func (o *LeastSquaresProx) HessVec(v, hv []float64) float64 {
	m := o.Data
	m.MulVec(o.av, v)
	m.MulTransVec(hv, o.av)
	return addProxCurvature(o.Rho, v, hv)
}

func (o *LeastSquaresProx) newtonStep(g, s []float64) (float64, int, bool) {
	return o.newton.step(o.Data, o.Rho, nil, g, s)
}

func (o *LeastSquaresProx) curvature(s []float64) float64 {
	return o.newton.curvature(o.Data, o.Rho, nil, s)
}

func (o *LeastSquaresProx) solveRestricted(x []float64, opts TronOptions) (TronResult, bool) {
	return o.solve(o, o.Data, o.Rho, o.Y, o.Z, x, opts)
}

func (o *LeastSquaresProx) over(compact *sparse.CSR, y, z []float64) (Objective, *float64) {
	t := NewLeastSquaresProx(compact, o.B, o.Rho, y, z)
	return t, &t.Rho
}

// LocalLoss returns ½‖Ax−b‖² at x.
func (o *LeastSquaresProx) LocalLoss(x []float64) float64 {
	m := o.Data
	var loss float64
	for j := 0; j < m.NRows; j++ {
		r := m.RowDot(j, x) - o.B[j]
		loss += 0.5 * r * r
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
// full-dimension x and y (benchmark/mesh.go, examples/lasso; core's
// ReferenceOptimum only evaluates one) carries the pair above; core's
// worker, which core.Rank runs in psra-worker, stores no off-support state
// and emits ρ·z_j, the representative (x_j, y_j) = (z_j, 0) of the same
// class. Both feed the consensus the same w, up to the rounding of
// y_j + ρ(z_j − y_j/ρ).
//
// Both prox objectives embed one restriction. It is built at the first
// solve, so an objective that is only ever evaluated pays nothing, and it
// holds the compact twin (the same loss over sparse.CSR.CompactColumns'
// matrix, whose Y and Z are the gather buffers below) plus the solve's
// scratch, so steady-state solves allocate nothing.
type restriction struct {
	built      bool
	active     []int32   // touched columns, sorted; nil when none is untouched
	twin       Objective // nil when every column is touched
	twinRho    *float64  // twin's Rho field
	xA, yA, zA []float64 // x, y, z gathered onto active
	ws         Workspace // the compact solve's scratch
}

// restricted is the optional interface TRONWorkspace looks for. It is
// unexported on purpose: the restriction is how this package solves its own
// prox objectives, not a knob or an extension point.
type restricted interface {
	// solveRestricted minimises the objective from x in place as
	// restriction.solve describes; ok is false when every column of the
	// data matrix is touched and the caller must solve at full dimension.
	solveRestricted(x []float64, opts TronOptions) (res TronResult, ok bool)
}

// twinMaker builds an objective's compact twin: the same loss over compact
// with y and z as its dual and consensus terms, and the address of its Rho.
type twinMaker interface {
	over(compact *sparse.CSR, y, z []float64) (twin Objective, rho *float64)
}

// solve gathers (x, y, z) onto data's touched columns, runs TRON there on
// the compact twin, writes the closed form everywhere else and scatters the
// solved coordinates back. y, z and rho are read afresh on every call: the
// caller mutates them between solves. On the touched columns the result is,
// bit for bit, what TRONWorkspace returns for the twin from the gathered
// start; with no touched column there is no Newton solve at all.
func (s *restriction) solve(obj twinMaker, data *sparse.CSR, rho float64, y, z, x []float64, opts TronOptions) (TronResult, bool) {
	if !s.built {
		s.built = true
		if active, compact := data.CompactColumns(); compact != data {
			s.active = active
			s.xA = make([]float64, len(active))
			s.yA = make([]float64, len(active))
			s.zA = make([]float64, len(active))
			s.twin, s.twinRho = obj.over(compact, s.yA, s.zA)
		}
	}
	if s.twin == nil {
		return TronResult{}, false
	}
	for i, c := range s.active {
		s.xA[i], s.yA[i], s.zA[i] = x[c], y[c], z[c]
	}
	*s.twinRho = rho
	var res TronResult
	if len(s.active) > 0 {
		res = tron(s.twin, s.xA, opts, &s.ws)
	} else {
		res = TronResult{F: s.twin.Eval(s.xA, s.xA), Converged: true}
	}
	// Off-support the gradient y_j + ρ(x_j − z_j) vanishes at the closed
	// form, so res.GradNorm already is the full gradient norm; res.F gains
	// the separable terms to stay the whole objective at the returned x.
	k := 0
	for j := range x {
		if k < len(s.active) && int(s.active[k]) == j {
			x[j] = s.xA[k]
			k++
			continue
		}
		x[j] = z[j] - y[j]/rho
		diff := x[j] - z[j]
		res.F += y[j]*x[j] + 0.5*rho*diff*diff
	}
	return res, true
}
