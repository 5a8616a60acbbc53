package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"psrahgadmm/internal/vec"
)

// zObjL1 is the z-subproblem value λ‖z‖₁ + (nρ/2)‖z‖² − zᵀW, used to verify
// the closed-form update is the actual minimizer.
func zObjL1(z, w []float64, lambda, rho float64, n int) float64 {
	return lambda*vec.Nrm1(z) + 0.5*rho*float64(n)*vec.Nrm2Sq(z) - vec.Dot(z, w)
}

func TestZUpdateL1IsMinimizer(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 30; trial++ {
		dim := r.Intn(10) + 1
		n := r.Intn(8) + 1
		lambda := r.Float64() * 2
		rho := r.Float64()*2 + 0.1
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64() * 3
		}
		z := make([]float64, dim)
		ZUpdateL1(z, w, lambda, rho, n)
		f0 := zObjL1(z, w, lambda, rho, n)
		// Any perturbation must not decrease the objective.
		for k := 0; k < 20; k++ {
			zp := vec.Clone(z)
			zp[r.Intn(dim)] += (r.Float64() - 0.5) * 0.01
			if zObjL1(zp, w, lambda, rho, n) < f0-1e-12 {
				t.Fatalf("trial %d: perturbed objective lower than closed form", trial)
			}
		}
	}
}

func TestZUpdateL1Aliasing(t *testing.T) {
	w := []float64{5, -5, 0.5}
	ZUpdateL1(w, w, 1, 1, 2)
	want := []float64{2, -2, 0}
	if !vec.Equal(w, want) {
		t.Fatalf("aliased ZUpdateL1 = %v, want %v", w, want)
	}
}

func TestZUpdateL1ZeroLambdaIsAverageScaled(t *testing.T) {
	// λ=0 ⇒ z = W/(nρ), the plain consensus average of w-contributions.
	w := []float64{2, -4}
	z := make([]float64, 2)
	ZUpdateL1(z, w, 0, 2, 2)
	if !vec.Equal(z, []float64{0.5, -1}) {
		t.Fatalf("z = %v", z)
	}
}

func TestDualUpdate(t *testing.T) {
	y := []float64{1, 2}
	x := []float64{3, 4}
	z := []float64{1, 1}
	DualUpdate(y, x, z, 0.5)
	if !vec.Equal(y, []float64{2, 3.5}) {
		t.Fatalf("DualUpdate = %v", y)
	}
}

func TestWLocal(t *testing.T) {
	y := []float64{1, -1}
	x := []float64{2, 3}
	w := make([]float64, 2)
	WLocal(w, y, x, 2)
	if !vec.Equal(w, []float64{5, 5}) {
		t.Fatalf("WLocal = %v", w)
	}
}

func TestZUpdatePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	ZUpdateL1(make([]float64, 1), make([]float64, 1), 1, 1, 0)
}

// Property: ADMM fixed point — if x = z and w = y + ρx with y = −∂f… we
// verify the weaker, exact property that the primal residual after a dual
// update shrinks the Lagrangian disagreement: y' − y = ρ(x−z) exactly.
func TestDualUpdateExactResidualProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw%16) + 1
		r := rand.New(rand.NewSource(seed))
		y := make([]float64, dim)
		x := make([]float64, dim)
		z := make([]float64, dim)
		for i := 0; i < dim; i++ {
			y[i], x[i], z[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		rho := r.Float64() + 0.1
		y0 := vec.Clone(y)
		DualUpdate(y, x, z, rho)
		for i := range y {
			if math.Abs((y[i]-y0[i])-rho*(x[i]-z[i])) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
