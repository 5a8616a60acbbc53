package solver

import (
	"math"
	"math/rand"
	"testing"

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

func (o *quadratic) HessVec(v, hv []float64) {
	n := len(v)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += o.q[i][j] * v[j]
		}
		hv[i] = s
	}
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

// checkHessVec compares H·v against finite differences of the gradient.
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
	obj.HessVec(v, hv)

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

func TestLeastSquaresProxGradHess(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	data, _ := smallLogistic(r, 10, 5)
	b := make([]float64, 10)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	y := make([]float64, 5)
	z := make([]float64, 5)
	obj := NewLeastSquaresProx(data, b, 0.7, y, z)
	x := make([]float64, 5)
	for i := range x {
		x[i] = r.NormFloat64()
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
		for oname, obj := range map[string]Objective{
			"logistic":      NewLogisticProx(data, labels, math.NaN(), y, z),
			"least-squares": NewLeastSquaresProx(data, labels, math.NaN(), y, z),
		} {
			res := TRON(obj, make([]float64, data.NCols), TronOptions{MaxIter: 10, MaxCG: 20})
			if res.Converged || !math.IsNaN(res.GradNorm) {
				t.Errorf("%s, %s: %+v, want Converged false and GradNorm NaN", name, oname, res)
			}
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
