package solver

import (
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// evalTwoCalls is LogisticProx.Eval as it stood before the per-row exp was
// shared: LogLoss(bm) and Sigmoid(−bm) called separately, each evaluating
// exp(−|bm|) for itself. Kept verbatim as the bit-level reference, but for
// the margins, which it now keeps in a slice of its own.
func evalTwoCalls(o *LogisticProx, x, g []float64) float64 {
	m := o.Data
	margins := make([]float64, m.NRows)
	m.MulVec(margins, x)
	var loss float64
	for j := 0; j < m.NRows; j++ {
		bm := o.Labels[j] * margins[j]
		loss += LogLoss(bm)
		s := Sigmoid(-bm)
		o.d[j] = s * (1 - s)
		o.av[j] = -o.Labels[j] * s
	}
	m.MulTransVec(g, o.av)
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] += o.Y[i] + o.Rho*diff
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
	}
	return loss
}

// sameBits is bit equality, with any NaN equal to any NaN: which payload a
// NaN operand propagates is the hardware's choice, not the expression's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestEvalOneExpPerRowMatchesTwoCalls sweeps the margin b·aᵀx over every
// regime of the two stable formulas — ±0, the subnormal and tiny range, the
// bulk, the saturating tails where exp underflows, ±Inf and NaN — one
// margin per single-row problem, both labels, and demands the loss, the
// curvature cache, the gradient coefficient and the gradient itself equal
// the two-call form's bit for bit.
func TestEvalOneExpPerRowMatchesTwoCalls(t *testing.T) {
	margins := []float64{0, 5e-324, 1e-310, 1e-300, 1e-17, 1e-8, 0.5, 1, math.Ln2, 20, 36.7, 37, 709, 710, 745.2, 746, 1e4, math.MaxFloat64, math.Inf(1), math.NaN()}
	for m := 1e-3; m < 800; m *= 1.0137 {
		margins = append(margins, m)
	}
	for _, mag := range margins {
		for _, sign := range []float64{1, -1} {
			for _, label := range []float64{1, -1} {
				data := sparse.NewCSR(1, 1, 1)
				data.AppendRow([]int32{0}, []float64{sign * mag})
				y, z := []float64{0.25}, []float64{-0.5}
				got := NewLogisticProx(data, []float64{label}, 1.5, y, z)
				want := NewLogisticProx(data, []float64{label}, 1.5, y, z)
				x, gGot, gWant := []float64{1}, []float64{0}, []float64{0}
				lGot, lWant := got.Eval(x, gGot), evalTwoCalls(want, x, gWant)
				if !sameBits(lGot, lWant) || !sameBits(got.d[0], want.d[0]) || !sameBits(got.av[0], want.av[0]) || !sameBits(gGot[0], gWant[0]) {
					t.Fatalf("margin %v·%v, label %v: Eval (loss %v, d %v, c %v, g %v) != two-call form (loss %v, d %v, c %v, g %v)",
						sign, mag, label, lGot, got.d[0], got.av[0], gGot[0], lWant, want.d[0], want.av[0], gWant[0])
				}
			}
		}
	}
}

// The same equality on a whole random problem, where the loss is a running
// sum over rows and the gradient a scatter of every row's coefficient.
func TestEvalMatchesTwoCallsOnRandomProblem(t *testing.T) {
	data, labels := sparseShard(rand.New(rand.NewSource(7)), 60, 25, 0.3)
	y, z := randVec(rand.New(rand.NewSource(8)), 25, 1), randVec(rand.New(rand.NewSource(9)), 25, 1)
	got := NewLogisticProx(data, labels, 0.7, y, z)
	want := NewLogisticProx(data, labels, 0.7, y, z)
	for _, scale := range []float64{0, 0.1, 3, 40, 900} {
		x := randVec(rand.New(rand.NewSource(10)), 25, scale)
		gGot, gWant := make([]float64, 25), make([]float64, 25)
		if lGot, lWant := got.Eval(x, gGot), evalTwoCalls(want, x, gWant); !sameBits(lGot, lWant) {
			t.Fatalf("scale %v: loss %v != %v", scale, lGot, lWant)
		}
		for i := range gGot {
			if !sameBits(gGot[i], gWant[i]) {
				t.Fatalf("scale %v: g[%d] %v != %v", scale, i, gGot[i], gWant[i])
			}
		}
		for j := range got.d {
			if !sameBits(got.d[j], want.d[j]) {
				t.Fatalf("scale %v: d[%d] %v != %v", scale, j, got.d[j], want.d[j])
			}
		}
	}
}

// sameResult is == on TronResult with its floats compared by sameBits.
func sameResult(a, b TronResult) bool {
	return a.Iters == b.Iters && a.CGIters == b.CGIters && a.FunEvals == b.FunEvals &&
		a.Converged == b.Converged && sameBits(a.F, b.F) && sameBits(a.GradNorm, b.GradNorm)
}

// TestEvalAtTheAcceptedPointIsFresh: after a solve, Eval at its iterate is
// served from the kept data terms, also after another point's Eval has
// overwritten the curvature cache and after Y, Z and Rho change, and f, g
// and the Hessian HessVec then applies are a fresh objective's bit for bit.
func TestEvalAtTheAcceptedPointIsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	data, labels := sparseShard(r, 40, 12, 0.4)
	_, compact := data.CompactColumns()
	n := compact.NCols
	if newtonCost(compact) != 0 {
		t.Fatal("shard routes exact; the kept terms are the CG loop's")
	}
	obj := NewLogisticProx(compact, labels, 1, randVec(r, n, 0.2), randVec(r, n, 0.5))
	x := randVec(r, n, 0.3)
	TRON(obj, x, TronOptions{})
	g, gFresh, hv, hvFresh := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for _, step := range []string{"as solved", "after another point's Eval", "after Y, Z and Rho change"} {
		switch step {
		case "after another point's Eval":
			obj.Eval(randVec(r, n, 1), g)
		case "after Y, Z and Rho change":
			obj.Y, obj.Z, obj.Rho = randVec(r, n, 0.2), randVec(r, n, 0.5), 2.5
		}
		f := obj.Eval(x, g)
		if !obj.hit {
			t.Fatalf("%s: Eval at the accepted point swept the data", step)
		}
		fresh := NewLogisticProx(compact, labels, obj.Rho, obj.Y, obj.Z)
		if fFresh := fresh.Eval(x, gFresh); !sameBits(f, fFresh) {
			t.Fatalf("%s: f %v, fresh %v", step, f, fFresh)
		}
		v := randVec(r, n, 1)
		if vHv, vHvFresh := obj.HessVec(v, hv), fresh.HessVec(v, hvFresh); !sameBits(vHv, vHvFresh) {
			t.Fatalf("%s: vᵀHv %v, fresh %v", step, vHv, vHvFresh)
		}
		for i := range g {
			if !sameBits(g[i], gFresh[i]) || !sameBits(hv[i], hvFresh[i]) {
				t.Fatalf("%s: g[%d] %v, Hv %v; fresh %v, %v", step, i, g[i], hv[i], gFresh[i], hvFresh[i])
			}
		}
	}
}

// TestAcceptedPointServesNoStaleSolve: an objective that keeps its
// iterate's data terms across solves solves, bit for bit, as a fresh one
// does from the same start, through what the engine does between solves:
// warm starts, a NaN-poisoned iterate (FaultPlan.NaNAtIteration), a
// rollback to a checkpointed iterate, and Y, Z and Rho changed. The shards
// take the CG loop compact and through the restriction's twin.
func TestAcceptedPointServesNoStaleSolve(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	tall, tallLabels := sparseShard(r, 40, 12, 0.4)
	_, tall = tall.CompactColumns()
	wide, wideLabels := sparseShard(r, 30, 60, 0.08)
	for _, c := range []struct {
		name   string
		data   *sparse.CSR
		labels []float64
	}{{"compact", tall, tallLabels}, {"restricted", wide, wideLabels}} {
		n := c.data.NCols
		obj := NewLogisticProx(c.data, c.labels, 1, randVec(r, n, 0.2), randVec(r, n, 0.5))
		x := randVec(r, n, 0.3)
		opts := TronOptions{MaxIter: 10, MaxCG: 20}
		var checkpoint []float64
		for _, step := range []string{"cold", "warm", "checkpointed", "warm again", "NaN-poisoned", "rolled back", "Y, Z and Rho changed", "warm after the change"} {
			switch step {
			case "checkpointed":
				checkpoint = vec.Clone(x)
			case "NaN-poisoned":
				x[0] = math.NaN()
			case "rolled back":
				copy(x, checkpoint)
			case "Y, Z and Rho changed":
				for i := range obj.Y {
					obj.Y[i] += 0.1 * r.NormFloat64()
					obj.Z[i] -= 0.2 * r.NormFloat64()
				}
				obj.Rho = 0.3
			}
			for i := range obj.Z { // keep every warm solve a real one
				obj.Z[i] += 0.01 * r.NormFloat64()
			}
			xFresh := vec.Clone(x)
			got := TRON(obj, x, opts)
			want := TRON(NewLogisticProx(c.data, c.labels, obj.Rho, obj.Y, obj.Z), xFresh, opts)
			if !sameResult(got, want) {
				t.Fatalf("%s, %s: %+v, fresh objective %+v", c.name, step, got, want)
			}
			for i := range x {
				if !sameBits(x[i], xFresh[i]) {
					t.Fatalf("%s, %s: x[%d] %v, fresh objective %v", c.name, step, i, x[i], xFresh[i])
				}
			}
		}
	}
}
