package solver

import (
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// plain hides everything but Objective's three methods, so TRON can
// discover neither the restriction nor the exact Newton step: it solves at
// full dimension with Steihaug CG, the reference the restricted path and
// the fused CG are compared against.
type plain struct{ Objective }

// sparseShard draws a shard the way a rank sees one: most columns
// untouched, some rows empty.
func sparseShard(r *rand.Rand, rows, cols int, density float64) (*sparse.CSR, []float64, []float64) {
	m := sparse.NewCSR(0, cols, 0)
	labels := make([]float64, rows)
	b := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var cs []int32
		var vs []float64
		if i%5 != 3 { // every fifth row stays empty
			for c := 0; c < cols; c++ {
				if r.Float64() < density {
					cs = append(cs, int32(c))
					vs = append(vs, r.NormFloat64())
				}
			}
		}
		m.AppendRow(cs, vs)
		labels[i] = 1
		if r.Float64() < 0.5 {
			labels[i] = -1
		}
		b[i] = r.NormFloat64()
	}
	return m, labels, b
}

func randVec(r *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = scale * r.NormFloat64()
	}
	return v
}

func gather(v []float64, idx []int32) []float64 {
	out := make([]float64, len(idx))
	for i, c := range idx {
		out[i] = v[c]
	}
	return out
}

// TestRestrictedSolveIsTheEngineSolve pins "one implementation, two entry
// points": solver.TRON on a full-dimension objective is, on the touched
// columns, bit for bit the solve internal/core performs on its compacted
// objective, and the closed form everywhere else.
func TestRestrictedSolveIsTheEngineSolve(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 5+r.Intn(30), 20+r.Intn(60)
		data, labels, _ := sparseShard(r, rows, cols, 0.04)
		rho := []float64{0.5, 1, 3}[trial%3]
		x, y, z := randVec(r, cols, 0.3), randVec(r, cols, 0.2), randVec(r, cols, 0.5)
		opts := TronOptions{}
		if trial%2 == 1 {
			opts = TronOptions{MaxIter: 10, MaxCG: 20} // benchmark/mesh.go's
		}

		// The engine-style call, from the gathered start.
		active, compact := data.CompactColumns()
		if len(active) == cols {
			t.Fatalf("trial %d: every column touched, nothing to restrict", trial)
		}
		xA := gather(x, active)
		var ws Workspace
		want := TRONWorkspace(NewLogisticProx(compact, labels, rho, gather(y, active), gather(z, active)), xA, opts, &ws)

		obj := NewLogisticProx(data, labels, rho, y, z)
		got := TRON(obj, x, opts)

		if got.Iters != want.Iters || got.CGIters != want.CGIters || got.FunEvals != want.FunEvals ||
			got.Converged != want.Converged || got.GradNorm != want.GradNorm {
			t.Fatalf("trial %d: result %+v, engine-style %+v", trial, got, want)
		}
		k := 0
		for j := range x {
			if k < len(active) && int(active[k]) == j {
				if x[j] != xA[k] {
					t.Fatalf("trial %d: touched column %d: %v, engine-style %v", trial, j, x[j], xA[k])
				}
				k++
			} else if x[j] != z[j]-y[j]/rho {
				t.Fatalf("trial %d: untouched column %d: %v, closed form %v", trial, j, x[j], z[j]-y[j]/rho)
			}
		}
		// TronResult describes the whole objective at the returned x.
		g := make([]float64, cols)
		f := obj.Eval(x, g)
		if math.Abs(got.F-f) > 1e-12*math.Abs(f) {
			t.Fatalf("trial %d: F = %v, objective at x = %v", trial, got.F, f)
		}
		if gn := vec.Nrm2(g); math.Abs(got.GradNorm-gn) > 1e-12*(1+gn) {
			t.Fatalf("trial %d: GradNorm = %v, ‖∇f(x)‖ = %v", trial, got.GradNorm, gn)
		}
	}
}

// TestRestrictedSolveMatchesUnrestricted checks the restriction is exact:
// at tight tolerances it lands where the full-dimension solve lands, for
// both prox objectives.
func TestRestrictedSolveMatchesUnrestricted(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	tight := TronOptions{GradTol: 1e-10, CGTol: 1e-6, MaxIter: 200, MaxCG: 200}
	for trial := 0; trial < 12; trial++ {
		rows, cols := 10+r.Intn(20), 20+r.Intn(40)
		data, labels, b := sparseShard(r, rows, cols, 0.05)
		rho := []float64{0.5, 1, 3}[trial%3]
		y, z := randVec(r, cols, 0.2), randVec(r, cols, 0.5)
		x0 := randVec(r, cols, 0.3)
		for name, obj := range map[string]Objective{
			"logistic":      NewLogisticProx(data, labels, rho, y, z),
			"least squares": NewLeastSquaresProx(data, b, rho, y, z),
		} {
			x, xFull := vec.Clone(x0), vec.Clone(x0)
			res := TRON(obj, x, tight)
			full := TRON(plain{obj}, xFull, tight)
			// 1e-10 relative sits at the rounding floor, where TRON may stop
			// on a collapsed radius instead; either way both are at the optimum.
			if res.GradNorm > 1e-7 || full.GradNorm > 1e-7 {
				t.Fatalf("trial %d %s: not at the optimum: %+v / %+v", trial, name, res, full)
			}
			if !vec.WithinTol(x, xFull, 1e-7) {
				t.Fatalf("trial %d %s: restricted and unrestricted solves disagree", trial, name)
			}
			if math.Abs(res.F-full.F) > 1e-9*(1+math.Abs(full.F)) {
				t.Fatalf("trial %d %s: F %v vs unrestricted %v", trial, name, res.F, full.F)
			}
		}
	}
}

// TestRestrictedSolveReadsTermsPerSolve: Y and Z are captured by reference
// and Rho is a mutable field (adaptive ρ); a cached restriction must see
// all three as they are when a solve starts.
func TestRestrictedSolveReadsTermsPerSolve(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	data, labels, _ := sparseShard(r, 20, 50, 0.05)
	y, z := randVec(r, 50, 0.2), randVec(r, 50, 0.5)
	obj := NewLogisticProx(data, labels, 1, y, z)
	x := make([]float64, 50)
	TRON(obj, x, TronOptions{}) // builds and caches the restriction

	for i := range y {
		y[i] += 0.1 * r.NormFloat64()
		z[i] -= 0.2 * r.NormFloat64()
	}
	obj.Rho = 2.5
	xFresh := vec.Clone(x)
	got := TRON(obj, x, TronOptions{})
	want := TRON(NewLogisticProx(data, labels, 2.5, y, z), xFresh, TronOptions{})
	if got != want || !vec.Equal(x, xFresh) {
		t.Fatalf("after mutating Y, Z, Rho: %+v, fresh objective %+v", got, want)
	}

	// Re-pointing the fields at other slices counts as mutation too.
	obj.Y, obj.Z = randVec(r, 50, 0.2), randVec(r, 50, 0.5)
	xFresh = vec.Clone(x)
	got = TRON(obj, x, TronOptions{})
	want = TRON(NewLogisticProx(data, labels, 2.5, obj.Y, obj.Z), xFresh, TronOptions{})
	if got != want || !vec.Equal(x, xFresh) {
		t.Fatalf("after re-pointing Y, Z: %+v, fresh objective %+v", got, want)
	}
}

// TestRestrictEveryColumnTouchedIsThePlainSolve: an objective with nothing
// to restrict (the engine's already-compact ones, dense data) takes the
// full-dimension body operation for operation and keeps no extra state.
func TestRestrictEveryColumnTouchedIsThePlainSolve(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	data, labels := smallLogistic(r, 40, 8)
	y, z := randVec(r, 8, 0.2), randVec(r, 8, 0.5)
	obj := NewLogisticProx(data, labels, 1.5, y, z)
	x := randVec(r, 8, 0.3)
	xPlain := vec.Clone(x)

	got := TRON(obj, x, TronOptions{})
	want := TRON(plain{NewLogisticProx(data, labels, 1.5, y, z)}, xPlain, TronOptions{})
	if got != want || !vec.Equal(x, xPlain) {
		t.Fatalf("full-support solve %+v differs from the plain body's %+v", got, want)
	}
	if obj.twin != nil || obj.active != nil || obj.xA != nil || obj.ws.g != nil {
		t.Fatal("full-support objective kept restriction state")
	}
	var ws Workspace
	if n := testing.AllocsPerRun(10, func() { TRONWorkspace(obj, x, TronOptions{}, &ws) }); n != 0 {
		t.Fatalf("full-support TRONWorkspace allocates %v per solve", n)
	}
}

// TestRestrictedSolveSteadyStateAllocatesNothing: the scratch is the
// objective's, so solver.TRON — a fresh Workspace per call — is free after
// the first solve, on the CG route and on the exact Newton one.
func TestRestrictedSolveSteadyStateAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	data, labels, b := sparseShard(r, 20, 80, 0.04)
	short, shortLabels, shortB := sparseShard(r, 6, 80, 0.3)
	if newtonCost(data) != 0 || newtonCost(short) == 0 {
		t.Fatal("shards do not cover both routes")
	}
	y, z := randVec(r, 80, 0.2), randVec(r, 80, 0.5)
	for name, obj := range map[string]Objective{
		"logistic":                 NewLogisticProx(data, labels, 1, y, z),
		"least squares":            NewLeastSquaresProx(data, b, 1, y, z),
		"logistic, row space":      NewLogisticProx(short, shortLabels, 1, y, z),
		"least squares, row space": NewLeastSquaresProx(short, shortB, 1, y, z),
	} {
		x := make([]float64, 80)
		if n := testing.AllocsPerRun(10, func() {
			TRON(obj, x, TronOptions{MaxIter: 10, MaxCG: 20})
			for i := range z { // keep every solve a real one
				z[i] = -z[i]
			}
		}); n != 0 {
			t.Fatalf("%s: steady-state TRON allocates %v per solve", name, n)
		}
	}
}

// TestRestrictEmptySupport: a shard with no stored entry has nothing to
// solve — closed form only, no Newton iteration, and still an honest
// TronResult.
func TestRestrictEmptySupport(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	data, labels, _ := sparseShard(r, 6, 10, 0)
	y, z := randVec(r, 10, 0.2), randVec(r, 10, 0.5)
	obj := NewLogisticProx(data, labels, 2, y, z)
	x := randVec(r, 10, 1)
	res := TRON(obj, x, TronOptions{})
	if res.Iters != 0 || res.CGIters != 0 || res.FunEvals != 0 || !res.Converged || res.GradNorm != 0 {
		t.Fatalf("empty support ran a solve: %+v", res)
	}
	for j := range x {
		if x[j] != z[j]-y[j]/2 {
			t.Fatalf("column %d: %v, closed form %v", j, x[j], z[j]-y[j]/2)
		}
	}
	g := make([]float64, 10)
	if f := obj.Eval(x, g); math.Abs(res.F-f) > 1e-12*math.Abs(f) {
		t.Fatalf("F = %v, objective at x = %v", res.F, f)
	}
}
