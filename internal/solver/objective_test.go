package solver

import (
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/sparse"
)

// evalTwoCalls is LogisticProx.Eval as it stood before the per-row exp was
// shared: LogLoss(bm) and Sigmoid(−bm) called separately, each evaluating
// exp(−|bm|) for itself. Kept verbatim as the bit-level reference.
func evalTwoCalls(o *LogisticProx, x, g []float64) float64 {
	m := o.Data
	m.MulVec(o.margins, x)
	var loss float64
	for j := 0; j < m.NRows; j++ {
		bm := o.Labels[j] * o.margins[j]
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
	data, labels, _ := sparseShard(rand.New(rand.NewSource(7)), 60, 25, 0.3)
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
