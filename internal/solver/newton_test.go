package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// newtonObjective is a prox objective of this package: one that can take
// the exact step.
type newtonObjective interface {
	Objective
	exactNewton
}

// newtonShard draws a short, wide shard that routes to the exact step, plus
// a copy of its first row (G is then singular). Given a point x it also
// appends its second row scaled to margins ±40 and ±1000 at x, where the
// logistic curvature dᵢ is ≈ 4e-18 and 0: saturated rows.
func newtonShard(r *rand.Rand, m, n int, x []float64) (*sparse.CSR, []float64, []float64) {
	base, labels, b := sparseShard(r, m, n, 0.3)
	a := sparse.NewCSR(0, n, 0)
	for i := 0; i < m; i++ {
		a.AppendRow(base.Row(i))
	}
	a.AppendRow(base.Row(0))
	labels, b = append(labels, labels[0]), append(b, b[0])
	if x != nil {
		cols, vals := base.Row(1)
		for _, margin := range []float64{40, 1000} {
			v := vec.Clone(vals)
			vec.Scale(margin/math.Abs(base.RowDot(1, x)), v)
			a.AppendRow(cols, v)
			labels, b = append(labels, labels[1]), append(b, b[1])
		}
	}
	if newtonCost(a) == 0 {
		panic(fmt.Sprintf("newtonShard: %d×%d with %d nonzeros routes to CG", a.NRows, n, a.NNZ()))
	}
	return a, labels, b
}

// curvatureOf returns obj's D after an Eval: the logistic σ(1−σ) cache, or
// nil (D = I) for least squares.
func curvatureOf(obj Objective) []float64 {
	if lg, ok := obj.(*LogisticProx); ok {
		return lg.d
	}
	return nil
}

// denseHessian returns H = ρI + AᵀDA as an n×n dense matrix (d nil: D = I).
func denseHessian(a *sparse.CSR, rho float64, d []float64) [][]float64 {
	n := a.NCols
	h := make([][]float64, n)
	for i := range h {
		h[i] = make([]float64, n)
		h[i][i] = rho
	}
	for j := 0; j < a.NRows; j++ {
		dj := 1.0
		if d != nil {
			dj = d[j]
		}
		cols, vals := a.Row(j)
		for p, c := range cols {
			for q, e := range cols {
				h[c][e] += dj * vals[p] * vals[q]
			}
		}
	}
	return h
}

// denseNewton solves H·s = −g by a dense Cholesky of H.
func denseNewton(t *testing.T, h [][]float64, g []float64) []float64 {
	t.Helper()
	n := len(g)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			v := h[i][j]
			for k := 0; k < j; k++ {
				v -= l[i][k] * l[j][k]
			}
			switch {
			case j < i:
				l[i][j] = v / l[j][j]
			case v <= 0:
				t.Fatalf("dense Hessian not positive definite at pivot %d", i)
			default:
				l[i][i] = math.Sqrt(v)
			}
		}
	}
	s := make([]float64, n)
	for i := 0; i < n; i++ {
		v := -g[i]
		for k := 0; k < i; k++ {
			v -= l[i][k] * s[k]
		}
		s[i] = v / l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		v := s[i]
		for k := i + 1; k < n; k++ {
			v -= l[k][i] * s[k]
		}
		s[i] = v / l[i][i]
	}
	return s
}

func denseMul(h [][]float64, v []float64) []float64 {
	out := make([]float64, len(h))
	for i, row := range h {
		out[i] = vec.Dot(row, v)
	}
	return out
}

// relDiff is ‖a − b‖/‖b‖.
func relDiff(a, b []float64) float64 {
	d := vec.Clone(a)
	vec.Axpy(-1, b, d)
	return vec.Nrm2(d) / vec.Nrm2(b)
}

// TestGramNewtonSolvesNewtonSystem: the row-space step solves H·s = −g to
// rounding, against a dense n×n Cholesky, for both prox objectives, with
// saturated rows (dᵢ ≈ 0) and a duplicated row (a singular G).
func TestGramNewtonSolvesNewtonSystem(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for trial := 0; trial < 12; trial++ {
		m, n := 3+r.Intn(8), 30+r.Intn(50)
		x := randVec(r, n, 0.3)
		// Least squares has no saturation: its scaled rows would only make H
		// ill-conditioned, so it gets a shard without them.
		saturated, labels, _ := newtonShard(r, m, n, x)
		plainRows, _, b := newtonShard(r, m, n, nil)
		for _, rho := range []float64{0.5, 1, 3} {
			y, z := randVec(r, n, 0.2), randVec(r, n, 0.5)
			for name, obj := range map[string]newtonObjective{
				"logistic":      NewLogisticProx(saturated, labels, rho, y, z),
				"least squares": NewLeastSquaresProx(plainRows, b, rho, y, z),
			} {
				name := fmt.Sprintf("trial %d, %s, ρ=%v", trial, name, rho)
				g := make([]float64, n)
				obj.Eval(x, g)
				d := curvatureOf(obj)
				if d != nil && !(d[len(d)-1] == 0 && d[len(d)-2] < 1e-16) {
					t.Fatalf("%s: saturated rows have d = %v, %v", name, d[len(d)-2], d[len(d)-1])
				}
				s := make([]float64, n)
				gHg, cost, ok := obj.newtonStep(g, s)
				if !ok || cost < 2 {
					t.Fatalf("%s: no exact step (ok %v, cost %d)", name, ok, cost)
				}

				var a *sparse.CSR
				if d != nil {
					a = saturated
				} else {
					a = plainRows
				}
				h := denseHessian(a, rho, d)
				want := denseNewton(t, h, g)
				if e := relDiff(s, want); e > 1e-10 {
					t.Errorf("%s: ‖s − s_dense‖/‖s_dense‖ = %g", name, e)
				}
				hs := denseMul(h, s)
				vec.Axpy(1, g, hs)
				if e := vec.Nrm2(hs) / vec.Nrm2(g); e > 1e-10 {
					t.Errorf("%s: ‖H·s + g‖/‖g‖ = %g", name, e)
				}
				if want := vec.Dot(g, denseMul(h, g)); math.Abs(gHg-want) > 1e-12*want {
					t.Errorf("%s: gᵀHg = %v, dense %v", name, gHg, want)
				}
			}
		}
	}
}

// TestTronDoglegOnBoundary: a Newton step longer than the radius is cut back
// to a point on the boundary with a positive predicted reduction, along −g
// when the Cauchy point is outside too, else on the dogleg; sᵀHs is what a
// Hessian product says it is, and a step inside the radius is left alone.
func TestTronDoglegOnBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		m, n := 3+r.Intn(8), 30+r.Intn(50)
		a, labels, b := newtonShard(r, m, n, nil)
		y, z, x := randVec(r, n, 0.2), randVec(r, n, 0.5), randVec(r, n, 0.3)
		for name, obj := range map[string]newtonObjective{
			"logistic":      NewLogisticProx(a, labels, 0.05, y, z),
			"least squares": NewLeastSquaresProx(a, b, 0.05, y, z),
		} {
			g, sN := make([]float64, n), make([]float64, n)
			obj.Eval(x, g)
			gnorm := vec.Nrm2(g)
			gHg, _, ok := obj.newtonStep(g, sN)
			if !ok {
				t.Fatalf("trial %d %s: no exact step", trial, name)
			}
			newtonNorm, cauchyNorm := vec.Nrm2(sN), gnorm*gnorm*gnorm/gHg
			if !(cauchyNorm < newtonNorm) {
				t.Fatalf("trial %d %s: Cauchy point %v not inside the Newton step %v", trial, name, cauchyNorm, newtonNorm)
			}
			model := func(s []float64) float64 {
				hs := make([]float64, n)
				sHs := obj.HessVec(s, hs)
				return vec.Dot(g, s) + 0.5*sHs
			}
			for _, c := range []struct {
				name     string
				delta    float64
				products int
			}{
				{"inside", 2 * newtonNorm, 0},
				{"cauchy", 0.5 * cauchyNorm, 0},
				{"dogleg", 0.5 * (cauchyNorm + newtonNorm), 1},
			} {
				name := fmt.Sprintf("trial %d %s %s", trial, name, c.name)
				s, sc := vec.Clone(sN), make([]float64, n)
				var res TronResult
				sHs, atBoundary := dogleg(obj, g, s, sc, gnorm, gHg, c.delta, &res)
				if res.CGIters != c.products {
					t.Errorf("%s: counted %d products, want %d", name, res.CGIters, c.products)
				}
				if c.name == "inside" {
					if atBoundary || !vec.Equal(s, sN) {
						t.Errorf("%s: step inside the radius was changed (boundary %v)", name, atBoundary)
					}
					continue
				}
				if !atBoundary {
					t.Fatalf("%s: not on the boundary", name)
				}
				if e := math.Abs(vec.Nrm2(s)-c.delta) / c.delta; e > 1e-12 {
					t.Errorf("%s: ‖s‖ = %v, Δ = %v", name, vec.Nrm2(s), c.delta)
				}
				hs := make([]float64, n)
				if want := obj.HessVec(s, hs); math.Abs(sHs-want) > 1e-10*want {
					t.Errorf("%s: sᵀHs = %v, HessVec says %v", name, sHs, want)
				}
				if pred := -(vec.Dot(g, s) + 0.5*sHs); !(pred > 0) {
					t.Errorf("%s: predicted reduction %v", name, pred)
				}
				// The dogleg point does at least as well as the Cauchy point.
				if c.name == "dogleg" {
					cauchy := vec.Clone(g)
					vec.Scale(-gnorm/(gHg/gnorm), cauchy)
					if model(s) > model(cauchy) {
						t.Errorf("%s: model %v above the Cauchy point's %v", name, model(s), model(cauchy))
					}
				}
			}
		}
	}
}

// TestNewtonRoute: the benchmark's shard shapes route as the cost rule
// says — news20's 8 shards and the wide data's 64 exact, its 16 shards and
// both reference optimum solves CG — and so do ρ = 0 and poisoned
// curvature, whose solves are then not converged.
func TestNewtonRoute(t *testing.T) {
	news, _, err := dataset.Generate(dataset.News20Like(0.02, 1))
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "wide", Dim: 16000, TrainRows: 512, TestRows: 8,
		RowNNZ: 6, ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		data  *dataset.Dataset
		ranks int
		exact bool
	}{
		{"engine-news20-8", news, 8, true},
		{"engine-wide-64", wide, 64, true},
		{"engine-guarded-16", wide, 16, false},
		{"news20 reference", news, 1, false},
		{"wide reference", wide, 1, false},
	} {
		for k, sh := range c.data.Shard(c.ranks) {
			_, compact := sh.X.CompactColumns()
			if got := newtonCost(compact) > 0; got != c.exact {
				t.Errorf("%s shard %d (%d rows, %d nonzeros): exact %v, want %v",
					c.name, k, compact.NRows, compact.NNZ(), got, c.exact)
			}
		}
	}

	sh := news.Shard(8)[0]
	_, compact := sh.X.CompactColumns()
	n := compact.NCols
	r := rand.New(rand.NewSource(72))
	y, z, x0 := randVec(r, n, 0.2), randVec(r, n, 0.5), randVec(r, n, 0.3)
	g, s := make([]float64, n), make([]float64, n)

	// ρ decides per step: the same objective takes the step at ρ = 1 and
	// not at ρ = 0.
	obj := NewLogisticProx(compact, sh.Labels, 0, y, z)
	obj.Eval(x0, g)
	if _, _, ok := obj.newtonStep(g, s); ok {
		t.Error("ρ = 0 took the exact step")
	}
	obj.Rho = 1
	obj.Eval(x0, g)
	m, nnz := float64(compact.NRows), float64(compact.NNZ())
	if _, cost, ok := obj.newtonStep(g, s); !ok || cost != 1+int(math.Ceil(m*m*m/(12*nnz))) {
		t.Errorf("ρ = 1: ok %v, cost %d", ok, cost)
	}

	// On the exact route TRON lands where the CG route lands.
	x, xCG := vec.Clone(x0), vec.Clone(x0)
	tight := TronOptions{GradTol: 1e-9, CGTol: 1e-6, MaxIter: 200, MaxCG: 200}
	res, resCG := TRON(obj, x, tight), TRON(plain{obj}, xCG, tight)
	if !res.Converged || !resCG.Converged || relDiff(x, xCG) > 1e-7 {
		t.Errorf("exact %+v and CG %+v solves disagree by %g", res, resCG, relDiff(x, xCG))
	}
	if res.CGIters >= resCG.CGIters {
		t.Errorf("exact route cost %d products, CG %d", res.CGIters, resCG.CGIters)
	}

	// A NaN curvature fails a pivot, so the step is CG's.
	obj.Eval(x0, g)
	obj.d[3] = math.NaN()
	if _, _, ok := obj.newtonStep(g, s); ok {
		t.Error("NaN curvature took the exact step")
	}
	// Poisoned data fails a pivot too, so every step falls back; with NaN
	// the solve is not converged.
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *compact
		bad.Val = vec.Clone(compact.Val)
		bad.Val[len(bad.Val)/2] = poison
		obj := NewLogisticProx(&bad, sh.Labels, 1, y, z)
		obj.Eval(x0, g)
		if _, _, ok := obj.newtonStep(g, s); ok {
			t.Errorf("%v in the data took the exact step", poison)
		}
		if !math.IsNaN(poison) {
			continue
		}
		if res := TRON(obj, vec.Clone(x0), TronOptions{MaxIter: 10, MaxCG: 20}); res.Converged || !math.IsNaN(res.GradNorm) {
			t.Errorf("NaN in the data: %+v, want not converged, GradNorm NaN", res)
		}
	}
}
