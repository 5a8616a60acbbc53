package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// newtonShard draws a short, wide shard that routes to the exact step, plus
// a copy of its first row (G is then singular). Given a point x it also
// appends its second row scaled to margins ±40 and ±1000 at x, where the
// logistic curvature dᵢ is ≈ 4e-18 and 0: saturated rows.
func newtonShard(r *rand.Rand, m, n int, x []float64) (*sparse.CSR, []float64) {
	base, labels := sparseShard(r, m, n, 0.3)
	a := sparse.NewCSR(0, n, 0)
	for i := 0; i < m; i++ {
		a.AppendRow(base.Row(i))
	}
	a.AppendRow(base.Row(0))
	labels = append(labels, labels[0])
	if x != nil {
		cols, vals := base.Row(1)
		for _, margin := range []float64{40, 1000} {
			v := vec.Clone(vals)
			vec.Scale(margin/math.Abs(base.RowDot(1, x)), v)
			a.AppendRow(cols, v)
			labels = append(labels, labels[1])
		}
	}
	if newtonCost(a) == 0 {
		panic(fmt.Sprintf("newtonShard: %d×%d with %d nonzeros routes to CG", a.NRows, n, a.NNZ()))
	}
	return a, labels
}

// denseHessian returns H = ρI + AᵀDA as an n×n dense matrix.
func denseHessian(a *sparse.CSR, rho float64, d []float64) [][]float64 {
	n := a.NCols
	h := make([][]float64, n)
	for i := range h {
		h[i] = make([]float64, n)
		h[i][i] = rho
	}
	for j := 0; j < a.NRows; j++ {
		dj := d[j]
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

// The exact route as it ran in x-space before the row-space loop, kept as
// the oracle that loop is held to: oracleTron is tron with its exact
// branch, oracleStep the Woodbury step (one MulVec, one MulTransVec and the
// factor), oracleCurvature sᵀHs from one MulVec, and oracleDogleg the fit to
// the trust region. Only the counters in oracleStats, the refreshOnAccept
// switch and a CG step's predicted reduction, which now comes from the CG's
// residual as tron's does, are new.

// oracleStats counts which branches oracleTron's steps took.
type oracleStats struct{ inside, cauchy, dogleg, rejected int }

// oracleTron is tron as it was with the exact branch in it; exact false
// takes CG steps only. refreshOnAccept puts D back to the accepted point's
// after a rejected trial (LIBLINEAR's rule) instead of keeping the trial's,
// which Eval leaves.
func oracleTron(o *LogisticProx, x []float64, opts TronOptions, exact, refreshOnAccept bool) (TronResult, oracleStats) {
	opts.fill()
	var ws Workspace
	ws.ensure(len(x))
	g, gNew := ws.g, ws.gNew
	s, hd, xNew := ws.s, ws.hd, ws.xNew
	dAcc := make([]float64, len(o.d))
	var st oracleStats

	var res TronResult
	f := o.Eval(x, g)
	copy(dAcc, o.d)
	res.FunEvals++
	gnorm0 := vec.Nrm2(g)
	gnorm := gnorm0
	converged := func() bool {
		return gnorm <= opts.GradTol*gnorm0 || gnorm <= gradTolAbs
	}
	if converged() {
		res.F = f
		res.GradNorm = gnorm
		res.Converged = true
		return res, st
	}
	delta := gnorm0

	for res.Iters = 0; res.Iters < opts.MaxIter; res.Iters++ {
		if converged() {
			res.Converged = true
			break
		}
		var sHs float64
		ok, atBoundary := false, false
		if exact {
			var gHg float64
			var cost int
			if gHg, cost, ok = oracleStep(o, g, s); ok {
				res.CGIters += cost
				sHs, atBoundary = oracleDogleg(o, g, s, ws.d, gnorm, gHg, delta, &res, &st)
			}
		}
		if !ok {
			atBoundary = steihaugCG(o, g, s, ws.r, ws.d, hd, delta, opts, &res)
		}
		var gs, sr float64
		for i, si := range s {
			gs += g[i] * si
			sr += si * ws.r[i]
			xNew[i] = x[i] + si
		}
		if ok && !atBoundary {
			sHs = -gs // H s = −g
		}
		pred := -(gs + 0.5*sHs)
		if !ok {
			pred = -0.5 * (gs - sr) // sᵀHs = −gᵀs − sᵀr from the CG's residual
		}

		fNew := o.Eval(xNew, gNew)
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
			g, gNew = gNew, g
			f = fNew
			gnorm = vec.Nrm2(g)
			copy(dAcc, o.d)
		} else {
			st.rejected++
			if refreshOnAccept {
				copy(o.d, dAcc)
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
	return res, st
}

// oracleStep writes s = −H⁻¹g, H the Hessian at the point of o's last Eval,
// and returns gᵀHg and the step's cost; ok is false where the row-space
// loop does not run or a pivot fails.
func oracleStep(o *LogisticProx, g, s []float64) (gHg float64, cost int, ok bool) {
	gn, a, rho, d := &o.newton, o.Data, o.Rho, o.d
	if !gn.decided {
		gn.decide(a)
	}
	if gn.cost == 0 || !(rho > 0) {
		return 0, 0, false
	}
	sd, q := gn.sd, gn.q
	a.MulVec(q, g) // u = A·g
	var du float64
	for i, ui := range q {
		di := d[i]
		du += di * ui * ui
		sd[i] = math.Sqrt(di)
		q[i] = sd[i] * ui
	}
	if !gn.factor(rho) {
		return 0, 0, false
	}
	gn.solve()
	for i := range q {
		q[i] *= sd[i]
	}
	a.MulTransVec(s, q)
	var gg float64
	inv := 1 / rho
	for i, gi := range g {
		s[i] = (s[i] - gi) * inv
		gg += gi * gi
	}
	return rho*gg + du, gn.cost, true
}

// oracleCurvature is sᵀHs = ρ‖s‖² + Σ dᵢ(As)ᵢ².
func oracleCurvature(o *LogisticProx, s []float64) float64 {
	q := o.newton.q
	o.Data.MulVec(q, s)
	var ds float64
	for i, v := range q {
		ds += o.d[i] * v * v
	}
	return o.Rho*vec.Nrm2Sq(s) + ds
}

// oracleDogleg fits the Newton step s to ‖s‖ ≤ delta: s stays inside;
// outside it becomes −(delta/‖g‖)·g when the Cauchy point is outside too,
// else the dogleg point, whose sᵀHs costs a product.
func oracleDogleg(o *LogisticProx, g, s, sc []float64, gnorm, gHg, delta float64, res *TronResult, st *oracleStats) (sHs float64, atBoundary bool) {
	if !outsideRadius(s, vec.Nrm2Sq(s), delta) {
		st.inside++
		return 0, false
	}
	alpha := gnorm / (gHg / gnorm)
	if alpha*gnorm >= delta {
		st.cauchy++
		t := delta / gnorm
		for i, gi := range g {
			s[i] = -t * gi
		}
		return t * t * gHg, true
	}
	st.dogleg++
	for i, gi := range g {
		c := -alpha * gi
		sc[i] = c
		s[i] -= c
	}
	tau := boundaryTau(sc, s, delta)
	for i, c := range sc {
		s[i] = c + tau*s[i]
	}
	res.CGIters++
	return oracleCurvature(o, s), true
}

// rowCase is one short, wide solve: a compact shard (every column touched)
// that routes exact, ρ, y, z and a start.
type rowCase struct {
	a       *sparse.CSR
	labels  []float64
	rho     float64
	y, z, x []float64
	start   string
}

// drawRowCase draws a case of m rows over n columns from seed; exact says
// whether it routes to the row-space loop (a draw that touches no more
// columns than it has rows never does). ρ is
// log-uniform in [0.1, 10], y is ρ·N(0, 0.04) (the dual scales with ρ in
// ADMM), and every row has norm 0.5, 1 or 3. A third of the starts are
// random (off x₀ + range(Aᵀ)), a third on x₀ + range(Aᵀ) and the rest x₀
// itself (e₀ = 0). A third of the shards repeat their first row (G
// singular). Rows of bounded norm keep the draw off saturated losses,
// where D ≈ 0 makes the Newton step the Cauchy point and the branch a tie
// that rounding decides; and the Gram form's rounding grows with the
// square of a row's norm: with rows scaled up to norm 10⁴ the two loops
// parted at 1e-9 (DESIGN.md §3.3).
func drawRowCase(seed int64, m, n int) *rowCase {
	r := rand.New(rand.NewSource(seed))
	base, labels := sparseShard(r, m, n, 0.15+0.4*r.Float64())
	scale := []float64{0.5, 1, 3}[r.Intn(3)]
	for i := 0; i < m; i++ {
		if _, vals := base.Row(i); len(vals) > 0 {
			vec.Scale(scale/vec.Nrm2(vals), vals)
		}
	}
	c := &rowCase{rho: math.Pow(10, -1+2*r.Float64())}
	c.y, c.z = randVec(r, n, 0.2*c.rho), randVec(r, n, 0.5) // y/ρ = O(1), as in ADMM
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = c.z[i] - c.y[i]/c.rho
	}
	switch r.Intn(3) {
	case 0:
		c.start, c.x = "random", randVec(r, n, 0.3)
	case 1:
		c.start, c.x = "on x₀+range(Aᵀ)", make([]float64, n)
		base.MulTransVec(c.x, randVec(r, m, 0.3))
		vec.Axpy(1, x0, c.x)
	default:
		c.start, c.x = "x₀", vec.Clone(x0)
	}
	if r.Intn(3) == 0 {
		base.AppendRow(base.Row(0))
		labels = append(labels, labels[0])
	}
	active, compact := base.CompactColumns()
	c.a, c.labels = compact, labels
	c.y, c.z, c.x = gather(c.y, active), gather(c.z, active), gather(c.x, active)
	return c
}

func (c *rowCase) exact() bool { return newtonCost(c.a) > 0 }

func (c *rowCase) obj() *LogisticProx {
	return NewLogisticProx(c.a, c.labels, c.rho, vec.Clone(c.y), vec.Clone(c.z))
}

// checkRowSpace solves c with TRON, which takes the row-space loop, and
// with the x-space oracle, and fails on any differing count or an x more
// than 1e-12 apart (relative); it returns the oracle's branch counts.
func checkRowSpace(t *testing.T, name string, c *rowCase, opts TronOptions) oracleStats {
	t.Helper()
	x, xO := vec.Clone(c.x), vec.Clone(c.x)
	got := TRON(c.obj(), x, opts)
	want, st := oracleTron(c.obj(), xO, opts, true, false)
	if got.Iters != want.Iters || got.CGIters != want.CGIters || got.FunEvals != want.FunEvals || got.Converged != want.Converged {
		t.Fatalf("%s: row space %+v, oracle %+v (%+v)", name, got, want, st)
	}
	if e := relDiff(x, xO); !(e <= 1e-12) && !(vec.Nrm2(xO) == 0 && vec.Nrm2(x) == 0) {
		t.Fatalf("%s: x differs from the oracle's by %g relative", name, e)
	}
	if e := math.Abs(got.F-want.F) / (1 + math.Abs(want.F)); !(e <= 1e-12) {
		t.Fatalf("%s: F = %v, oracle %v", name, got.F, want.F)
	}
	return st
}

// TestRowSpaceTronMatchesOracle: on short, wide shards the row-space loop
// takes the x-space loop's steps: the same Iters, CGIters and FunEvals,
// and x within 1e-12, from starts off and on x₀ + range(Aᵀ), at ρ ≠ 1,
// through rejected steps and both dogleg branches.
func TestRowSpaceTronMatchesOracle(t *testing.T) {
	var total oracleStats
	starts := map[string]int{}
	solves := 0
	for seed := int64(0); solves < 2*160; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := drawRowCase(seed, 2+r.Intn(11), 20+r.Intn(80))
		if !c.exact() {
			continue
		}
		starts[c.start]++
		for _, opts := range []TronOptions{{MaxIter: 10, MaxCG: 20}, {}} {
			name := fmt.Sprintf("seed %d (%d×%d, ρ=%.3g, %s start, opts %+v)", seed, c.a.NRows, c.a.NCols, c.rho, c.start, opts)
			st := checkRowSpace(t, name, c, opts)
			total.inside += st.inside
			total.cauchy += st.cauchy
			total.dogleg += st.dogleg
			total.rejected += st.rejected
			solves++
		}
	}
	if total.inside == 0 || total.cauchy == 0 || total.dogleg == 0 || total.rejected == 0 || len(starts) != 3 {
		t.Errorf("branches not all reached: %+v, starts %v", total, starts)
	}
	t.Logf("%d solves: %+v, starts %v", solves, total, starts)
}

// FuzzRowSpaceTronMatchesOracle is TestRowSpaceTronMatchesOracle over the
// shape, ρ and the seed. A shard with no more touched columns than rows
// (the 4×1 and 3×3 seeds) must stay on CG: TRON declines the row loop and lands
// where the CG route does, bit for bit.
func FuzzRowSpaceTronMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(40), 0.0)
	f.Add(int64(2), uint8(12), uint8(90), -1.0)
	f.Add(int64(3), uint8(2), uint8(20), 1.0)
	f.Add(int64(17), uint8(3), uint8(0), 0.5) // 4×1
	f.Add(int64(0), uint8(2), uint8(2), 0.0)  // 3×3
	f.Fuzz(func(t *testing.T, seed int64, m, n uint8, logRho float64) {
		if !(logRho >= -1 && logRho <= 1) {
			t.Skip()
		}
		c := drawRowCase(seed, 1+int(m)%16, 1+int(n))
		c.rho = math.Pow(10, logRho)
		opts := TronOptions{MaxIter: 20, MaxCG: 20}
		if c.a.NCols <= c.a.NRows {
			if c.exact() {
				t.Fatalf("%d×%d shard routes exact", c.a.NRows, c.a.NCols)
			}
			filled := opts
			filled.fill()
			var ws Workspace
			if _, done := c.obj().rowTron(vec.Clone(c.x), filled, &ws); done {
				t.Fatalf("%d×%d shard took the row loop", c.a.NRows, c.a.NCols)
			}
			x, xCG := vec.Clone(c.x), vec.Clone(c.x)
			got, want := TRON(c.obj(), x, opts), TRON(plain{c.obj()}, xCG, opts)
			if got != want || !slices.EqualFunc(x, xCG, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%d×%d shard: TRON %+v, CG route %+v", c.a.NRows, c.a.NCols, got, want)
			}
			return
		}
		if !c.exact() {
			t.Skip()
		}
		checkRowSpace(t, "fuzz", c, opts)
	})
}

// TestGramNewtonSolvesNewtonSystem: the row loop's Newton step solves
// H·s = −g to rounding, against a dense n×n Cholesky, with saturated rows
// (dᵢ ≈ 0) and a duplicated row (a singular G). At ρ ≥ 1 the step, at most
// ‖g‖/ρ long, is inside the first radius ‖g‖, so it is the loop's first
// step: θ_s = −1 and β_s in gramNewton.sb.
func TestGramNewtonSolvesNewtonSystem(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for trial := 0; trial < 12; trial++ {
		m, n := 3+r.Intn(8), 30+r.Intn(50)
		x := randVec(r, n, 0.3)
		saturated, labels := newtonShard(r, m, n, x)
		for _, rho := range []float64{1, 2, 3} {
			y, z := randVec(r, n, 0.2), randVec(r, n, 0.5)
			obj := NewLogisticProx(saturated, labels, rho, y, z)
			name := fmt.Sprintf("trial %d, ρ=%v", trial, rho)
			g := make([]float64, n)
			obj.Eval(x, g)
			d := vec.Clone(obj.d)
			if !(d[len(d)-1] == 0 && d[len(d)-2] < 1e-16) {
				t.Fatalf("%s: saturated rows have d = %v, %v", name, d[len(d)-2], d[len(d)-1])
			}
			opts := TronOptions{MaxIter: 1}
			opts.fill()
			var ws Workspace
			res, done := obj.rowTron(vec.Clone(x), opts, &ws)
			if !done || res.Iters != 1 || res.CGIters != obj.newton.cost || obj.newton.cost < 2 {
				t.Fatalf("%s: no exact Newton step inside the region (%+v, done %v, cost %d)", name, res, done, obj.newton.cost)
			}
			// s = −e₀ + Aᵀβ_s, e₀ = x − (z − y/ρ).
			s := make([]float64, n)
			saturated.MulTransVec(s, obj.newton.sb)
			for i := range s {
				s[i] -= x[i] - (z[i] - y[i]/rho)
			}
			h := denseHessian(saturated, rho, d)
			want := denseNewton(t, h, g)
			if e := relDiff(s, want); e > 1e-10 {
				t.Errorf("%s: ‖s − s_dense‖/‖s_dense‖ = %g", name, e)
			}
			hs := denseMul(h, s)
			vec.Axpy(1, g, hs)
			if e := vec.Nrm2(hs) / vec.Nrm2(g); e > 1e-10 {
				t.Errorf("%s: ‖H·s + g‖/‖g‖ = %g", name, e)
			}
			as := make([]float64, saturated.NRows)
			saturated.MulVec(as, s)
			if e := relDiff(obj.newton.as, as); e > 1e-10 {
				t.Errorf("%s: the carried A·s is %g off", name, e)
			}
		}
	}
}

// TestTronDoglegOnBoundary: a first Newton step longer than the radius is
// cut back to a point on the boundary, along −g when the Cauchy point is
// outside too, else on the dogleg, which counts one more product and does
// at least as well on the model as the Cauchy point; a step inside the
// radius is left alone. The oracle names the branch; the row loop's
// accepted first step is compared with it.
func TestTronDoglegOnBoundary(t *testing.T) {
	seen := map[string]int{}
	for trial := int64(0); trial < 60; trial++ {
		r := rand.New(rand.NewSource(71 + trial))
		full, labels := newtonShard(r, 3+r.Intn(8), 30+r.Intn(50), nil)
		_, a := full.CompactColumns() // no closed-form columns: x is the loop's alone
		n := a.NCols
		vec.Scale([]float64{0.1, 0.5, 2}[trial%3], a.Val)
		rho := []float64{0.05, 0.05, 0.05, 3}[trial%4]
		y, z, x0 := randVec(r, n, 0.2), randVec(r, n, 0.5), randVec(r, n, 0.3)
		opts := TronOptions{MaxIter: 1}
		x, xO := vec.Clone(x0), vec.Clone(x0)
		res := TRON(NewLogisticProx(a, labels, rho, y, z), x, opts)
		oracle := NewLogisticProx(a, labels, rho, y, z)
		want, st := oracleTron(oracle, xO, opts, true, false)
		branch := map[oracleStats]string{{inside: 1}: "inside", {cauchy: 1}: "cauchy", {dogleg: 1}: "dogleg"}[oracleStats{st.inside, st.cauchy, st.dogleg, 0}]
		name := fmt.Sprintf("trial %d %s", trial, branch)
		if branch == "" || res.Iters != 1 || res.CGIters != want.CGIters {
			t.Fatalf("%s: row space %+v, oracle %+v %+v", name, res, want, st)
		}
		if st.rejected != 0 {
			continue // x stayed put and says nothing about the step
		}
		seen[branch]++
		if e := relDiff(x, xO); e > 1e-12 {
			t.Errorf("%s: x is %g off the oracle's", name, e)
		}
		s := vec.Clone(x)
		vec.Axpy(-1, x0, s)
		g := make([]float64, n)
		oracle.Eval(x0, g) // Δ = ‖g₀‖, and D at x₀ for the model
		gnorm := vec.Nrm2(g)
		if branch == "inside" {
			if !(vec.Nrm2(s) < gnorm) {
				t.Errorf("%s: ‖s‖ = %v outside Δ = %v", name, vec.Nrm2(s), gnorm)
			}
			continue
		}
		if e := math.Abs(vec.Nrm2(s)-gnorm) / gnorm; e > 1e-10 {
			t.Errorf("%s: ‖s‖ = %v, Δ = %v", name, vec.Nrm2(s), gnorm)
		}
		model := func(s []float64) float64 {
			hs := make([]float64, n)
			return vec.Dot(g, s) + 0.5*oracle.HessVec(s, hs)
		}
		if m := model(s); !(m < 0) {
			t.Errorf("%s: model %v, want a reduction", name, m)
		}
		if branch == "dogleg" {
			hg := make([]float64, n)
			cauchy := vec.Clone(g)
			vec.Scale(-gnorm*gnorm/oracle.HessVec(g, hg), cauchy)
			if model(s) > model(cauchy)*(1-1e-12) {
				t.Errorf("%s: model %v above the Cauchy point's %v", name, model(s), model(cauchy))
			}
		}
	}
	if seen["inside"] < 3 || seen["cauchy"] < 3 || seen["dogleg"] < 3 {
		t.Errorf("branches seen: %v", seen)
	}
	t.Logf("accepted first steps by branch: %v", seen)
}

// TestTronCurvatureIsTheTrialPoints pins the curvature rule on both routes:
// after a rejected step, the next step's Hessian (HessVec on the CG route,
// the Cholesky on the row route) is the rejected trial point's, not the
// accepted point's as in LIBLINEAR. Both routes match the oracle that keeps
// the trial's D and, on some solve with a rejection, not the one that
// restores the accepted point's.
func TestTronCurvatureIsTheTrialPoints(t *testing.T) {
	differs := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := drawRowCase(seed, 2+r.Intn(11), 20+r.Intn(80))
		if !c.exact() {
			continue
		}
		opts := TronOptions{MaxIter: 10, MaxCG: 20}
		for _, route := range []string{"row space", "CG"} {
			exact := route == "row space"
			x := vec.Clone(c.x)
			var got TronResult
			if exact {
				got = TRON(c.obj(), x, opts)
			} else {
				got = TRON(plain{c.obj()}, x, opts)
			}
			xT, xA := vec.Clone(c.x), vec.Clone(c.x)
			trial, st := oracleTron(c.obj(), xT, opts, exact, false)
			accepted, _ := oracleTron(c.obj(), xA, opts, exact, true)
			tol := 1e-12
			if !exact {
				tol = 0 // the CG loop is the oracle's, bit for bit
			}
			if got.Iters != trial.Iters || got.CGIters != trial.CGIters || got.FunEvals != trial.FunEvals || !(relDiff(x, xT) <= tol) {
				t.Fatalf("seed %d %s: %+v, trial-point oracle %+v (x %g apart)", seed, route, got, trial, relDiff(x, xT))
			}
			if st.rejected > 0 && (accepted.CGIters != got.CGIters || relDiff(x, xA) > 1e-9) {
				differs[route]++
			}
		}
	}
	if differs["row space"] == 0 || differs["CG"] == 0 {
		t.Errorf("the accepted-point rule was never told apart: %v", differs)
	}
	t.Logf("solves the accepted-point rule tells apart: %v", differs)
}

// TestNewtonRoute: the benchmark's shard shapes route as the cost rule
// says — news20's 8 shards and the wide data's 64 exact, its 16 shards and
// both reference optimum solves CG, as do a 4×1 and a 3×3 dense shard (no
// more columns than rows) — and so do ρ = 0 and a poisoned start or data,
// which hand the solve to the CG loop; with NaN it is then not converged.
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
	// A dense shard with no more columns than rows is cheap to factor, but
	// its G is singular: it stays on CG.
	for _, shape := range [][2]int{{4, 1}, {3, 3}} {
		a := sparse.NewCSR(0, shape[1], 0)
		for i := 0; i < shape[0]; i++ {
			cols, vals := make([]int32, shape[1]), make([]float64, shape[1])
			for j := range cols {
				cols[j], vals[j] = int32(j), float64(1+i+j)
			}
			a.AppendRow(cols, vals)
		}
		if c := newtonCost(a); c != 0 {
			t.Errorf("%d×%d dense shard routes exact at cost %d", shape[0], shape[1], c)
		}
	}

	sh := news.Shard(8)[0]
	_, compact := sh.X.CompactColumns()
	n := compact.NCols
	r := rand.New(rand.NewSource(72))
	y, z, x0 := randVec(r, n, 0.2), randVec(r, n, 0.5), randVec(r, n, 0.3)
	opts := TronOptions{MaxIter: 10, MaxCG: 20}
	opts.fill()
	var ws Workspace

	// ρ decides per solve: the same objective takes the row loop at ρ = 1
	// and not at ρ = 0.
	obj := NewLogisticProx(compact, sh.Labels, 0, y, z)
	if res, done := obj.rowTron(vec.Clone(x0), opts, &ws); done || res != (TronResult{}) {
		t.Errorf("ρ = 0 took the row loop: %+v", res)
	}
	obj.Rho = 1
	m, nnz := float64(compact.NRows), float64(compact.NNZ())
	cost := 1 + int(math.Ceil(m*m*m/(12*nnz)))
	if res, done := obj.rowTron(vec.Clone(x0), opts, &ws); !done || obj.newton.cost != cost || res.CGIters < cost {
		t.Errorf("ρ = 1: done %v, cost %d, %+v", done, obj.newton.cost, res)
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

	// A NaN at a column of row 3 poisons that row's curvature, so the first
	// pivot fails: the row loop hands the untouched start to CG after its
	// one evaluation, and TRON is the CG solve plus that evaluation.
	cols, _ := compact.Row(3)
	poisoned := vec.Clone(x0)
	poisoned[cols[0]] = math.NaN()
	xp := vec.Clone(poisoned)
	if res, done := obj.rowTron(xp, opts, &ws); done || res != (TronResult{FunEvals: 1}) || !sameNaNs(xp, poisoned) {
		t.Errorf("NaN curvature: done %v, %+v", done, res)
	}
	xp, xpCG := vec.Clone(poisoned), vec.Clone(poisoned)
	res, resCG = TRON(obj, xp, opts), TRON(plain{obj}, xpCG, opts)
	resCG.FunEvals++
	if res.Iters != resCG.Iters || res.CGIters != resCG.CGIters || res.FunEvals != resCG.FunEvals || res.Converged || !sameNaNs(xp, xpCG) {
		t.Errorf("NaN curvature: TRON %+v, CG %+v", res, resCG)
	}
	// Poisoned data fails a pivot too, so the solve is CG's; with NaN it is
	// not converged.
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *compact
		bad.Val = vec.Clone(compact.Val)
		bad.Val[len(bad.Val)/2] = poison
		obj := NewLogisticProx(&bad, sh.Labels, 1, y, z)
		if _, done := obj.rowTron(vec.Clone(x0), opts, &ws); done {
			t.Errorf("%v in the data: the row loop finished the solve", poison)
		}
		if !math.IsNaN(poison) {
			continue
		}
		if res := TRON(obj, vec.Clone(x0), TronOptions{MaxIter: 10, MaxCG: 20}); res.Converged || !math.IsNaN(res.GradNorm) {
			t.Errorf("NaN in the data: %+v, want not converged, GradNorm NaN", res)
		}
	}
}

// sameNaNs reports a and b equal, NaN matching NaN.
func sameNaNs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}
