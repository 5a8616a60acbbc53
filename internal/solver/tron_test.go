package solver

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// quadratic is f(x) = ½xᵀQx − bᵀx with SPD diagonal-dominant Q, whose
// unique minimizer solves Qx = b.
type quadratic struct {
	q [][]float64
	b []float64
}

func newQuadratic(r *rand.Rand, n int) *quadratic {
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	// Q = MᵀM + I for random M: SPD.
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = r.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[k][i] * m[k][j]
			}
			q[i][j] = s
			if i == j {
				q[i][j] += 1
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return &quadratic{q: q, b: b}
}

func (o *quadratic) Dim() int { return len(o.b) }

func (o *quadratic) Eval(x, g []float64) float64 {
	n := len(x)
	var f float64
	for i := 0; i < n; i++ {
		var qx float64
		for j := 0; j < n; j++ {
			qx += o.q[i][j] * x[j]
		}
		g[i] = qx - o.b[i]
		f += 0.5*x[i]*qx - o.b[i]*x[i]
	}
	return f
}

func (o *quadratic) HessVec(v, hv []float64) float64 {
	n := len(v)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += o.q[i][j] * v[j]
		}
		hv[i] = s
	}
	return vec.Dot(v, hv)
}

// solveDense solves Qx=b by Gaussian elimination for the reference answer.
func (o *quadratic) solve() []float64 {
	n := len(o.b)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(vec.Clone(o.q[i]), o.b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

func TestTRONSolvesQuadratics(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for trial := 0; trial < 10; trial++ {
		n := r.Intn(12) + 2
		q := newQuadratic(r, n)
		x := make([]float64, n)
		res := TRON(q, x, TronOptions{GradTol: 1e-8, MaxIter: 200})
		if !res.Converged {
			t.Fatalf("trial %d: not converged: %+v", trial, res)
		}
		want := q.solve()
		if !vec.WithinTol(x, want, 1e-5) {
			t.Fatalf("trial %d: x=%v want %v", trial, x, want)
		}
		if res.CGIters == 0 || res.FunEvals == 0 {
			t.Fatalf("work counters empty: %+v", res)
		}
	}
}

func TestTRONAtOptimumImmediateStop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	q := newQuadratic(r, 5)
	x := q.solve()
	res := TRON(q, x, TronOptions{})
	if !res.Converged {
		t.Fatalf("not converged at optimum: %+v", res)
	}
	if res.Iters > 1 {
		t.Fatalf("took %d iterations at the optimum", res.Iters)
	}
}

func TestTRONZeroGradientStart(t *testing.T) {
	// f ≡ const at x=0 for b=0: gradient is exactly zero.
	q := &quadratic{q: [][]float64{{1, 0}, {0, 1}}, b: []float64{0, 0}}
	x := make([]float64, 2)
	res := TRON(q, x, TronOptions{})
	if !res.Converged || res.Iters != 0 {
		t.Fatalf("zero-gradient start: %+v", res)
	}
}

// checkGradient compares analytic gradient to central differences.
func checkGradient(t *testing.T, obj Objective, x []float64, tol float64) {
	t.Helper()
	n := obj.Dim()
	g := make([]float64, n)
	obj.Eval(x, g)
	h := 1e-6
	scratch := make([]float64, n)
	for i := 0; i < n; i++ {
		xp := vec.Clone(x)
		xp[i] += h
		fp := obj.Eval(xp, scratch)
		xm := vec.Clone(x)
		xm[i] -= h
		fm := obj.Eval(xm, scratch)
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-g[i]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("gradient[%d]: analytic %v, fd %v", i, g[i], fd)
		}
	}
	// Restore curvature cache at x for subsequent HessVec checks.
	obj.Eval(x, g)
}

// checkHessVec compares H·v against finite differences of the gradient,
// and HessVec's return against vec.Dot(v, hv) bit for bit.
func checkHessVec(t *testing.T, obj Objective, x []float64, tol float64) {
	t.Helper()
	n := obj.Dim()
	r := rand.New(rand.NewSource(77))
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	g := make([]float64, n)
	obj.Eval(x, g)
	hv := make([]float64, n)
	if vhv, dot := obj.HessVec(v, hv), vec.Dot(v, hv); math.Float64bits(vhv) != math.Float64bits(dot) {
		t.Fatalf("HessVec returned vᵀHv = %v, vec.Dot(v, hv) = %v", vhv, dot)
	}

	h := 1e-6
	xp := vec.Clone(x)
	vec.Axpy(h, v, xp)
	gp := make([]float64, n)
	obj.Eval(xp, gp)
	xm := vec.Clone(x)
	vec.Axpy(-h, v, xm)
	gm := make([]float64, n)
	obj.Eval(xm, gm)
	for i := 0; i < n; i++ {
		fd := (gp[i] - gm[i]) / (2 * h)
		if math.Abs(fd-hv[i]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("HessVec[%d]: analytic %v, fd %v", i, hv[i], fd)
		}
	}
}

func smallLogistic(r *rand.Rand, rows, cols int) (*sparse.CSR, []float64) {
	m := sparse.NewCSR(0, cols, 0)
	labels := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var cs []int32
		var vs []float64
		for c := 0; c < cols; c++ {
			if r.Float64() < 0.5 {
				cs = append(cs, int32(c))
				vs = append(vs, r.NormFloat64())
			}
		}
		m.AppendRow(cs, vs)
		if r.Float64() < 0.5 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	return m, labels
}

func TestLogisticProxGradHess(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	data, labels := smallLogistic(r, 12, 6)
	y := make([]float64, 6)
	z := make([]float64, 6)
	for i := range y {
		y[i] = r.NormFloat64() * 0.1
		z[i] = r.NormFloat64() * 0.1
	}
	obj := NewLogisticProx(data, labels, 1.5, y, z)
	x := make([]float64, 6)
	for i := range x {
		x[i] = r.NormFloat64() * 0.3
	}
	checkGradient(t, obj, x, 1e-4)
	checkHessVec(t, obj, x, 1e-4)
}

func TestTRONSolvesLogisticProx(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	data, labels := smallLogistic(r, 40, 8)
	y := make([]float64, 8)
	z := make([]float64, 8)
	obj := NewLogisticProx(data, labels, 1.0, y, z)
	x := make([]float64, 8)
	res := TRON(obj, x, TronOptions{GradTol: 1e-6, MaxIter: 100})
	if !res.Converged {
		t.Fatalf("TRON failed on logistic prox: %+v", res)
	}
	// At the solution the gradient must be ~0.
	g := make([]float64, 8)
	obj.Eval(x, g)
	if vec.Nrm2(g) > 1e-5 {
		t.Fatalf("gradient norm at solution: %v", vec.Nrm2(g))
	}
}

// A poisoned solve (here ρ = NaN, so every gradient entry is NaN) must not
// be reported as converged with a zero gradient norm — on the full-dimension
// path and on the restricted one alike.
func TestTRONNaNGradientIsNotConverged(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	full, labels := smallLogistic(r, 20, 6)
	untouched := sparse.NewCSR(0, 9, 0) // columns 6..8 hold no entry
	for i := 0; i < full.NRows; i++ {
		untouched.AppendRow(full.Row(i))
	}
	for name, data := range map[string]*sparse.CSR{"every column touched": full, "restricted": untouched} {
		y, z := make([]float64, data.NCols), make([]float64, data.NCols)
		obj := NewLogisticProx(data, labels, math.NaN(), y, z)
		res := TRON(obj, make([]float64, data.NCols), TronOptions{MaxIter: 10, MaxCG: 20})
		if res.Converged || !math.IsNaN(res.GradNorm) {
			t.Errorf("%s: %+v, want Converged false and GradNorm NaN", name, res)
		}
	}
}

func TestLogLossStable(t *testing.T) {
	// Huge positive margin: loss → 0 without overflow.
	if l := LogLoss(1000); l != 0 {
		if math.IsNaN(l) || math.IsInf(l, 0) || l > 1e-300 {
			t.Fatalf("LogLoss(1000) = %v", l)
		}
	}
	// Huge negative margin: loss ≈ −margin.
	if l := LogLoss(-1000); math.Abs(l-1000) > 1e-9 {
		t.Fatalf("LogLoss(-1000) = %v", l)
	}
	if l := LogLoss(0); math.Abs(l-math.Ln2) > 1e-15 {
		t.Fatalf("LogLoss(0) = %v", l)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := Sigmoid(1000); s != 1 {
		t.Fatalf("Sigmoid(1000) = %v", s)
	}
	if s := Sigmoid(-1000); s != 0 && s > 1e-300 {
		t.Fatalf("Sigmoid(-1000) = %v", s)
	}
	if s := Sigmoid(0); s != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", s)
	}
	// Symmetry σ(t) + σ(−t) = 1.
	for _, v := range []float64{0.3, 2, 17} {
		if d := Sigmoid(v) + Sigmoid(-v) - 1; math.Abs(d) > 1e-15 {
			t.Fatalf("sigmoid symmetry broken at %v: %v", v, d)
		}
	}
}

func TestLocalLossMatchesEval(t *testing.T) {
	// With y=0, z=0, rho=0 the prox objective equals the raw loss.
	r := rand.New(rand.NewSource(45))
	data, labels := smallLogistic(r, 15, 5)
	y := make([]float64, 5)
	z := make([]float64, 5)
	obj := NewLogisticProx(data, labels, 0, y, z)
	x := make([]float64, 5)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	g := make([]float64, 5)
	f := obj.Eval(x, g)
	if math.Abs(f-obj.LocalLoss(x)) > 1e-12*(1+math.Abs(f)) {
		t.Fatalf("Eval %v != LocalLoss %v with zero prox terms", f, obj.LocalLoss(x))
	}
}

// refTron and refSteihaugCG are tron and steihaugCG as they were before the
// CG's passes were fused: seven dense sweeps per CG step. They are kept
// verbatim but for HessVec's return, which they ignore, and vec.Add and
// vec.ScaleTo (deleted), which are inlined. TestFusedCGMatchesSevenPassCG
// holds the solver to them in Float64bits.
func refTron(obj Objective, x []float64, opts TronOptions, ws *Workspace) TronResult {
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
		atBoundary := refSteihaugCG(obj, g, s, r, d, hd, delta, opts, &res)

		obj.HessVec(s, hd)
		res.CGIters++
		pred := -(vec.Dot(g, s) + 0.5*vec.Dot(s, hd))

		for i := range xNew {
			xNew[i] = x[i] + s[i]
		}
		fNew := obj.Eval(xNew, gNew)
		res.FunEvals++
		actual := f - fNew

		snorm := vec.Nrm2(s)
		var ratio float64
		if pred > 0 {
			ratio = actual / pred
		} else {
			ratio = -1
		}
		switch {
		case ratio < eta1:
			delta = math.Max(sigma1*delta, math.Min(sigma2*snorm, delta*sigma2))
		case ratio < eta2:
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

func refSteihaugCG(obj Objective, g, s, r, d, hd []float64, delta float64, opts TronOptions, res *TronResult) bool {
	vec.Zero(s)
	for i, gv := range g { // vec.ScaleTo(r, -1, g): r = −g
		r[i] = -1 * gv
	}
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
			tau := boundaryTau(s, d, delta)
			vec.Axpy(tau, d, s)
			return true
		}
		alpha := rsq / dhd
		vec.Axpy(alpha, d, s)
		if vec.Nrm2(s) >= delta {
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

// curvatureProbe records which CG branches an objective's Hessian products
// can reach: a non-positive vᵀHv (the negative-curvature exit) and an
// infinite one (α = rsq/dhd is 0).
type curvatureProbe struct {
	Objective
	nonPositive, infinite bool
}

func (p *curvatureProbe) HessVec(v, hv []float64) float64 {
	c := p.Objective.HessVec(v, hv)
	p.nonPositive = p.nonPositive || c <= 0
	p.infinite = p.infinite || math.IsInf(c, 1)
	return c
}

// bitEqual is == on Float64bits: NaN payloads and signs count.
func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstSevenPass solves from x0 with tron and with refTron and fails
// on any differing bit of x, F or GradNorm, or any differing count. tron
// sees obj through plain, so it takes the CG step on every shape: the
// short news20 shards would otherwise take the exact Newton step, which the
// seven-pass reference does not know.
func checkAgainstSevenPass(t *testing.T, name string, obj Objective, x0 []float64, opts TronOptions) {
	t.Helper()
	opts.fill()
	x, xRef := vec.Clone(x0), vec.Clone(x0)
	var ws, wsRef Workspace
	got := tron(plain{obj}, x, opts, &ws)
	want := refTron(obj, xRef, opts, &wsRef)
	if got.Iters != want.Iters || got.CGIters != want.CGIters || got.FunEvals != want.FunEvals ||
		got.Converged != want.Converged || !bitEqual(got.F, want.F) || !bitEqual(got.GradNorm, want.GradNorm) {
		t.Fatalf("%s: fused %+v, seven-pass %+v", name, got, want)
	}
	for i := range x {
		if !bitEqual(x[i], xRef[i]) {
			t.Fatalf("%s: x[%d] = %v (%#x), seven-pass %v (%#x)", name, i,
				x[i], math.Float64bits(x[i]), xRef[i], math.Float64bits(xRef[i]))
		}
	}
}

// TestFusedCGMatchesSevenPassCG: fusing the CG's sweeps and screening the
// boundary test on the plain sum of squares moves no bit of any solve. The
// CG path is pinned (see checkAgainstSevenPass): it is what the shapes that
// route to CG, engine-guarded-16's and the reference optimum's, still run.
func TestFusedCGMatchesSevenPassCG(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	worker := TronOptions{MaxIter: 10, MaxCG: 20}

	// news20-like shards, compacted onto their support as internal/core
	// compacts them, at every ρ the engine's runs use and at ρ = 0.
	train, _, err := dataset.Generate(dataset.News20Like(0.01, 3))
	if err != nil {
		t.Fatal(err)
	}
	for k, shard := range train.Shard(8) {
		_, compact := shard.X.CompactColumns()
		n := compact.NCols
		for _, rho := range []float64{0, 0.5, 1, 3} {
			obj := NewLogisticProx(compact, shard.Labels, rho, randVec(r, n, 0.2), randVec(r, n, 0.5))
			for _, opts := range []TronOptions{{}, worker} {
				checkAgainstSevenPass(t, fmt.Sprintf("news20 shard %d ρ=%v %+v", k, rho, opts), obj, randVec(r, n, 0.3), opts)
			}
		}
	}

	for trial := 0; trial < 10; trial++ {
		q := newQuadratic(r, 2+r.Intn(12))
		checkAgainstSevenPass(t, fmt.Sprintf("quadratic %d", trial), q, make([]float64, len(q.b)), TronOptions{GradTol: 1e-8, MaxIter: 200})

		// Indefinite: Q − 3·tr(Q)/n·I has negative eigenvalues.
		ind := newQuadratic(r, 3+r.Intn(8))
		var tr float64
		for i := range ind.q {
			tr += ind.q[i][i]
		}
		for i := range ind.q {
			ind.q[i][i] -= 3 * tr / float64(len(ind.q))
		}
		probe := &curvatureProbe{Objective: ind}
		checkAgainstSevenPass(t, fmt.Sprintf("indefinite %d", trial), probe, randVec(r, len(ind.b), 1), worker)
		if !probe.nonPositive {
			t.Fatalf("indefinite %d: no negative-curvature exit taken", trial)
		}

		// Curvature 1e-6 against a gradient of order one: the Newton step is
		// ≈ 1e6 times the start radius ‖g₀‖, so CG steps end on the boundary.
		flat := newQuadratic(r, 2+r.Intn(12))
		for i := range flat.q {
			vec.Scale(1e-6, flat.q[i])
		}
		checkAgainstSevenPass(t, fmt.Sprintf("boundary %d", trial), flat, make([]float64, len(flat.b)), TronOptions{MaxIter: 200})
	}

	// NaN- and Inf-poisoned data, ρ and dual.
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data, labels := sparseShard(r, 20, 30, 0.2)
		_, compact := data.CompactColumns()
		n := compact.NCols
		bad := *compact
		bad.Val = vec.Clone(compact.Val)
		bad.Val[len(bad.Val)/2] = poison
		y := randVec(r, n, 0.2)
		yBad := vec.Clone(y)
		yBad[n/2] = poison
		for name, obj := range map[string]Objective{
			"data": NewLogisticProx(&bad, labels, 1, y, randVec(r, n, 0.5)),
			"ρ":    NewLogisticProx(compact, labels, poison, y, randVec(r, n, 0.5)),
			"dual": NewLogisticProx(compact, labels, 1, yBad, randVec(r, n, 0.5)),
		} {
			checkAgainstSevenPass(t, fmt.Sprintf("%v in %s", poison, name), obj, randVec(r, n, 0.3), worker)
		}
	}
}

// checkCGAgainstSevenPass runs steihaugCG and refSteihaugCG on one system
// and fails on a differing exit, count or bit of s. (A whole solve can hide
// a wrong step: one whose s TRON rejects leaves x where it was.)
func checkCGAgainstSevenPass(t *testing.T, name string, obj Objective, g []float64, delta float64, opts TronOptions) {
	t.Helper()
	var a, b Workspace
	a.ensure(len(g))
	b.ensure(len(g))
	var resA, resB TronResult
	got := steihaugCG(obj, g, a.s, a.r, a.d, a.hd, delta, opts, &resA)
	want := refSteihaugCG(obj, g, b.s, b.r, b.d, b.hd, delta, opts, &resB)
	if got != want || resA != resB {
		t.Fatalf("%s: boundary %v, %+v; seven-pass %v, %+v", name, got, resA, want, resB)
	}
	for i := range a.s {
		if !bitEqual(a.s[i], b.s[i]) {
			t.Fatalf("%s: s[%d] = %v, seven-pass %v", name, i, a.s[i], b.s[i])
		}
	}
}

// TestSteihaugCGMatchesSevenPass drives the CG alone where a whole solve
// may not show a difference: radii equal to an iterate's Nrm2 and one ulp
// either side (the screen's band, where √Σs² may not decide and Nrm2 must),
// and α = 0. It calls steihaugCG itself, so it stays on the CG path
// whatever the shape.
func TestSteihaugCGMatchesSevenPass(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	opts := TronOptions{}
	opts.fill()
	for trial := 0; trial < 20; trial++ {
		q := newQuadratic(r, 3+r.Intn(10))
		n := len(q.b)
		g := randVec(r, n, 1)
		for steps := 1; steps <= 3; steps++ {
			// The iterate after `steps` unconstrained steps.
			var ws Workspace
			ws.ensure(n)
			o := opts
			o.MaxCG = steps
			refSteihaugCG(q, g, ws.s, ws.r, ws.d, ws.hd, math.Inf(1), o, &TronResult{})
			norm := vec.Nrm2(ws.s)
			for _, delta := range []float64{norm, math.Nextafter(norm, 0), math.Nextafter(norm, math.Inf(1)), 1e-9 * norm} {
				checkCGAgainstSevenPass(t, fmt.Sprintf("trial %d, %d steps, δ=%v", trial, steps, delta), q, g, delta, o)
			}
		}
	}

	// Curvature 1e300 against a gradient of 1e10: H·d overflows, dhd = +Inf
	// and α = rsq/dhd is 0, so every step must leave s (and r) alone.
	huge := &curvatureProbe{Objective: &quadratic{
		q: [][]float64{{1e300, 0, 0}, {0, 1e300, 0}, {0, 0, 1e300}},
		b: []float64{-1e10, 2e10, 3e10},
	}}
	g := make([]float64, 3)
	huge.Eval(make([]float64, 3), g)
	checkCGAgainstSevenPass(t, "α = 0", huge, g, vec.Nrm2(g), opts)
	if !huge.infinite {
		t.Fatal("α = 0 case never saw dhd = +Inf")
	}
}

// FuzzCGBoundaryTest: outsideRadius decides exactly what vec.Nrm2(s) >= delta
// decides, for any bit pattern of s — ±0, subnormals, ±MaxFloat64, ±Inf,
// NaN payloads — and any delta, above all Nrm2(s) itself and its two
// neighbours. Each input is also tried with its exponents folded into
// [2⁻³², 2³¹], where √Σs² is in range and the screen, not Nrm2, decides.
func FuzzCGBoundaryTest(f *testing.F) {
	raw := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(raw(3, 4), 5.0)
	f.Add(raw(0, math.Copysign(0, -1)), 0.0)
	f.Add(raw(5e-324, -5e-324, 2.2e-308), 1e-300)
	f.Add(raw(math.MaxFloat64, -math.MaxFloat64), math.MaxFloat64)
	f.Add(raw(math.Inf(1), 1), math.Inf(1))
	f.Add(raw(math.Float64frombits(0x7ff8000000000bad), 2), 1.0)
	f.Add(raw(1e154, 1e154, 1e-160), 1.5e154)
	f.Add(raw(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 4.0)
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		vs := randVec(r, 1+r.Intn(64), math.Ldexp(1, r.Intn(40)-20))
		f.Add(raw(vs...), r.Float64()*8)
	}
	f.Fuzz(func(t *testing.T, b []byte, arbitrary float64) {
		n := min(len(b)/8, 64)
		if n == 0 {
			return
		}
		s := make([]float64, n)
		folded := make([]float64, n)
		for i := range s {
			u := binary.LittleEndian.Uint64(b[8*i:])
			s[i] = math.Float64frombits(u)
			// Keep sign and mantissa, map the exponent into [-32, 31].
			folded[i] = math.Float64frombits(u&^(0x7ff<<52) | uint64(1023-32+(u>>52)&63)<<52)
		}
		for _, v := range [][]float64{s, folded} {
			ssq, norm := vec.Nrm2Sq(v), vec.Nrm2(v)
			for _, delta := range []float64{norm, math.Nextafter(norm, math.Inf(-1)), math.Nextafter(norm, math.Inf(1)),
				math.Sqrt(ssq), arbitrary, 0, math.Inf(1), math.Inf(-1), math.NaN()} {
				if got, want := outsideRadius(v, ssq, delta), norm >= delta; got != want {
					t.Fatalf("s=%v δ=%v: screen %v, Nrm2 %v >= δ is %v (Σs² %v)", v, delta, got, norm, want, ssq)
				}
			}
		}
	})
}

func BenchmarkTRONLogistic(b *testing.B) {
	r := rand.New(rand.NewSource(46))
	data, labels := smallLogistic(r, 200, 50)
	y := make([]float64, 50)
	z := make([]float64, 50)
	obj := NewLogisticProx(data, labels, 1.0, y, z)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := make([]float64, 50)
		TRON(obj, x, TronOptions{})
	}
}
