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
func sparseShard(r *rand.Rand, rows, cols int, density float64) (*sparse.CSR, []float64) {
	m := sparse.NewCSR(0, cols, 0)
	labels := make([]float64, rows)
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
	}
	return m, labels
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
		data, labels := sparseShard(r, rows, cols, 0.04)
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
// at tight tolerances it lands where the full-dimension solve lands.
func TestRestrictedSolveMatchesUnrestricted(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	tight := TronOptions{GradTol: 1e-10, CGTol: 1e-6, MaxIter: 200, MaxCG: 200}
	for trial := 0; trial < 12; trial++ {
		rows, cols := 10+r.Intn(20), 20+r.Intn(40)
		data, labels := sparseShard(r, rows, cols, 0.05)
		rho := []float64{0.5, 1, 3}[trial%3]
		y, z := randVec(r, cols, 0.2), randVec(r, cols, 0.5)
		obj := NewLogisticProx(data, labels, rho, y, z)
		x := randVec(r, cols, 0.3)
		xFull := vec.Clone(x)
		res := TRON(obj, x, tight)
		full := TRON(plain{obj}, xFull, tight)
		// 1e-10 relative sits at the rounding floor, where TRON may stop
		// on a collapsed radius instead; either way both are at the optimum.
		if res.GradNorm > 1e-7 || full.GradNorm > 1e-7 {
			t.Fatalf("trial %d: not at the optimum: %+v / %+v", trial, res, full)
		}
		if !vec.WithinTol(x, xFull, 1e-7) {
			t.Fatalf("trial %d: restricted and unrestricted solves disagree", trial)
		}
		if math.Abs(res.F-full.F) > 1e-9*(1+math.Abs(full.F)) {
			t.Fatalf("trial %d: F %v vs unrestricted %v", trial, res.F, full.F)
		}
	}
}

// TestRestrictedSolveReadsTermsPerSolve: Y and Z are captured by reference
// and Rho is a mutable field (adaptive ρ); a cached restriction must see
// all three as they are when a solve starts.
func TestRestrictedSolveReadsTermsPerSolve(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	data, labels := sparseShard(r, 20, 50, 0.05)
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
	data, labels := sparseShard(r, 20, 80, 0.04)
	short, shortLabels := sparseShard(r, 6, 80, 0.3)
	if newtonCost(data) != 0 || newtonCost(short) == 0 {
		t.Fatal("shards do not cover both routes")
	}
	y, z := randVec(r, 80, 0.2), randVec(r, 80, 0.5)
	for name, obj := range map[string]Objective{
		"CG":        NewLogisticProx(data, labels, 1, y, z),
		"row space": NewLogisticProx(short, shortLabels, 1, y, z),
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

// writeBackPerColumn is the write-back restriction.solve ran before the gap
// loop, kept verbatim as the reference: one walk over every column,
// branching on whether it is the next active one.
func writeBackPerColumn(active []int32, xA []float64, rho float64, y, z, x []float64, f float64) float64 {
	k := 0
	for j := range x {
		if k < len(active) && int(active[k]) == j {
			x[j] = xA[k]
			k++
			continue
		}
		x[j] = z[j] - y[j]/rho
		diff := x[j] - z[j]
		f += y[j]*x[j] + 0.5*rho*diff*diff
	}
	return f
}

// TestWriteBackMatchesPerColumnReference holds the gap loop to the
// per-column walk in Float64bits, on x and on the objective sum, for the
// active sets whose gaps are empty or sit at the edges.
func TestWriteBackMatchesPerColumnReference(t *testing.T) {
	const n = 40
	allBut := func(skip int32) []int32 {
		var a []int32
		for c := int32(0); c < n; c++ {
			if c != skip {
				a = append(a, c)
			}
		}
		return a
	}
	shapes := map[string][]int32{
		"empty":                {},
		"all but the first":    allBut(0),
		"all but one":          allBut(17),
		"all but the last":     allBut(n - 1),
		"first and last":       {0, n - 1},
		"first only":           {0},
		"last only":            {n - 1},
		"adjacent runs":        {3, 4, 5, 9, 10, 38, 39},
		"single interior":      {21},
		"alternating columns":  {1, 3, 5, 7, 9, 11, 13},
		"adjacent at the edge": {0, 1, 2, n - 2, n - 1},
	}
	r := rand.New(rand.NewSource(67))
	for name, active := range shapes {
		for _, rho := range []float64{1, 0.3, 2.7, 1e-3} {
			// y/ρ and the squares round differently at every scale; a −0 in
			// y and z checks the sign of the closed form too.
			y, z := randVec(r, n, 1), randVec(r, n, 3)
			y[7], z[8] = math.Copysign(0, -1), math.Copysign(0, -1)
			xA := randVec(r, len(active), 1)
			f0 := r.NormFloat64()
			got, want := randVec(r, n, 1), randVec(r, n, 1)
			fGot := writeBack(active, xA, rho, y, z, got, f0)
			fWant := writeBackPerColumn(active, xA, rho, y, z, want, f0)
			if math.Float64bits(fGot) != math.Float64bits(fWant) {
				t.Fatalf("%s, ρ=%g: sum %v, per-column %v", name, rho, fGot, fWant)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s, ρ=%g: x[%d] = %v, per-column %v", name, rho, j, got[j], want[j])
				}
			}
		}
	}
}

// TestRestrictEmptySupport: a shard with no stored entry has nothing to
// solve — closed form only, no Newton iteration, and still an honest
// TronResult.
func TestRestrictEmptySupport(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	data, labels := sparseShard(r, 6, 10, 0)
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
