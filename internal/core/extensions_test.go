package core

import (
	"math"
	"strings"
	"testing"

	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

func TestResidualsShrink(t *testing.T) {
	train, _ := testData(t, 120)
	cfg := baseConfig(PSRAHGADMM, 4, 2)
	cfg.MaxIter = 40
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[1] // iteration 0's dual residual is vs z_prev = 0
	last := res.History[len(res.History)-1]
	if !(last.PrimalRes < first.PrimalRes) {
		t.Fatalf("primal residual did not shrink: %v → %v", first.PrimalRes, last.PrimalRes)
	}
	if !(last.DualRes < first.DualRes) {
		t.Fatalf("dual residual did not shrink: %v → %v", first.DualRes, last.DualRes)
	}
	if last.Rho != cfg.Rho {
		t.Fatalf("rho changed without AdaptiveRho: %v", last.Rho)
	}
}

func TestEarlyStoppingOnTol(t *testing.T) {
	train, _ := testData(t, 120)
	cfg := baseConfig(PSRAHGADMM, 4, 2)
	cfg.MaxIter = 200
	cfg.Tol = 1e-2
	cfg.EvalEvery = 1000 // evaluation must not be required for stopping
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("Tol stopping never fired")
	}
	if len(res.History) >= cfg.MaxIter {
		t.Fatalf("ran all %d iterations despite Tol", len(res.History))
	}
	last := res.History[len(res.History)-1]
	if last.PrimalRes > cfg.Tol || last.DualRes > cfg.Tol {
		t.Fatalf("stopped with residuals above Tol: %v %v", last.PrimalRes, last.DualRes)
	}
}

func TestAdaptiveRhoAdjustsAndConverges(t *testing.T) {
	train, _ := testData(t, 120)
	// Deliberately bad initial penalty: adaptation must correct it.
	mk := func(adaptive bool) *Result {
		cfg := baseConfig(PSRAHGADMM, 4, 2)
		cfg.Rho = 0.01
		cfg.MaxIter = 40
		cfg.AdaptiveRho = adaptive
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	adaptive := mk(true)
	fixed := mk(false)

	changed := false
	for _, h := range adaptive.History {
		if h.Rho != 0.01 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("AdaptiveRho never adjusted the penalty")
	}
	// With a badly small initial ρ the adaptive run should end closer to
	// consensus (smaller primal residual).
	aLast := adaptive.History[len(adaptive.History)-1]
	fLast := fixed.History[len(fixed.History)-1]
	if aLast.PrimalRes >= fLast.PrimalRes {
		t.Fatalf("adaptive primal residual %v not below fixed %v", aLast.PrimalRes, fLast.PrimalRes)
	}
}

func TestAdaptRhoRule(t *testing.T) {
	if got := adaptRho(1, 100, 1); got != 2 {
		t.Fatalf("primal-dominant: %v", got)
	}
	if got := adaptRho(1, 1, 100); got != 0.5 {
		t.Fatalf("dual-dominant: %v", got)
	}
	if got := adaptRho(1, 5, 4); got != 1 {
		t.Fatalf("balanced: %v", got)
	}
}

func TestQuantizedCommunication(t *testing.T) {
	train, test := testData(t, 160)
	run := func(codec exchange.Kind) *Result {
		cfg := baseConfig(PSRAHGADMM, 4, 2)
		cfg.MaxIter = 25
		cfg.Codec = codec
		res, err := Run(cfg, train, RunOptions{Test: test})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run("")
	q16 := run(exchange.SparseQ16)
	q8 := run(exchange.SparseQ8)

	// Bytes must shrink monotonically with precision.
	if !(q8.TotalBytes < q16.TotalBytes && q16.TotalBytes < full.TotalBytes) {
		t.Fatalf("byte ordering: q8=%d q16=%d full=%d", q8.TotalBytes, q16.TotalBytes, full.TotalBytes)
	}
	// 16-bit quantization should barely hurt the objective; 8-bit may
	// hurt more but must still optimize.
	if q16.FinalObjective() > full.FinalObjective()*1.1 {
		t.Fatalf("16-bit objective %v far above full %v", q16.FinalObjective(), full.FinalObjective())
	}
	if q8.FinalObjective() >= q8.History[0].Objective {
		t.Fatal("8-bit quantization prevented optimization")
	}
}

func TestQuantizeSparseBits(t *testing.T) {
	v := sparse.FromDense([]float64{1, 0, -0.5, 0.001, 0})
	exchange.QuantizeSparseBits(v, 8)
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	d := v.ToDense()
	if math.Abs(d[0]-1) > 1.0/127+1e-12 {
		t.Fatalf("max element moved: %v", d[0])
	}
	if math.Abs(d[2]+0.5) > 1.0/127+1e-12 {
		t.Fatalf("mid element error: %v", d[2])
	}
	// Tiny element rounds to zero and must be dropped.
	if d[3] != 0 {
		t.Fatalf("tiny element survived: %v", d[3])
	}
	// Empty and zero vectors are no-ops.
	empty := sparse.NewVector(3, 0)
	exchange.QuantizeSparseBits(empty, 8)
	if empty.NNZ() != 0 {
		t.Fatal("empty vector changed")
	}
}

func TestQuantEntryBytes(t *testing.T) {
	if exchange.EntryBytes(0) != 12 || exchange.EntryBytes(8) != 5 || exchange.EntryBytes(16) != 6 {
		t.Fatal("exchange.EntryBytes wrong")
	}
}

// TestCodecOverride: Config.Codec is the registered variant with one axis
// value swapped — the same history, bit for bit, as the variant registered
// with that codec — and an override that names no codec, or one the
// variant's consensus strategy cannot carry, is an error where the parent's
// knob was a silent no-op.
func TestCodecOverride(t *testing.T) {
	train, test := testData(t, 120)
	for _, tc := range []struct {
		base  Algorithm
		codec exchange.Kind
		named Algorithm
	}{
		{PSRAADMM, exchange.TopK, PSRAADMMTopK},
		{PSRAHGADMM, exchange.TopKQ8, PSRAHGADMMTopKQ8},
	} {
		run := func(alg Algorithm, codec exchange.Kind) *Result {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 8
			cfg.Codec = codec
			res, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatalf("%s + %q: %v", alg, codec, err)
			}
			return res
		}
		over, named := run(tc.base, tc.codec), run(tc.named, "")
		if len(over.History) != len(named.History) {
			t.Fatalf("%s + %s ran %d iterations, %s %d", tc.base, tc.codec, len(over.History), tc.named, len(named.History))
		}
		for i := range named.History {
			if !statBitEqual(over.History[i], named.History[i]) {
				t.Fatalf("%s + %s diverges from %s at iteration %d:\ngot  %+v\nwant %+v", tc.base, tc.codec, tc.named, i, over.History[i], named.History[i])
			}
		}
		if !bitsEqual(over.Z, named.Z) {
			t.Fatalf("%s + %s: final iterate differs from %s's", tc.base, tc.codec, tc.named)
		}
	}

	for _, tc := range []struct {
		alg   Algorithm
		codec exchange.Kind
		want  string
	}{
		{PSRAHGADMM, exchange.Dense, "tree consensus requires a sparse codec, not dense"},
		{PSRAADMM, exchange.Dense, "flat-psr consensus requires a sparse codec, not dense"},
		{PSRAHGADMMGroup, exchange.DenseF32, "group-local consensus requires a sparse codec, not dense-f32"},
		{PSRAHGADMM, "sparse-q7", `unknown codec "sparse-q7"`},
		{ADMMLib, "sparse-q7", `unknown codec "sparse-q7"`},
	} {
		cfg := baseConfig(tc.alg, 2, 1)
		cfg.Codec = tc.codec
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s + %q: Validate = %v, want an error containing %q", tc.alg, tc.codec, err, tc.want)
		}
	}
	// The ring and the star carry every codec, dense or sparse.
	for _, alg := range []Algorithm{ADMMLib, GCADMM} {
		for _, k := range exchange.Kinds() {
			cfg := baseConfig(alg, 2, 1)
			cfg.Codec = k
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s + %s: %v", alg, k, err)
			}
		}
	}
}

func TestReferenceOptimumAgreesWithFISTA(t *testing.T) {
	// Two unrelated solvers — consensus ADMM (TRON inner solves) and
	// FISTA (accelerated proximal gradient) — must agree on the global
	// optimum of the L1-logistic problem.
	train, _ := testData(t, 120)
	lambda := 0.5
	fADMM, _, err := ReferenceOptimum(train, 1.0, lambda, 200)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, train.Dim())
	fres := solver.FISTA(train.X, train.Labels, lambda, x, solver.FISTAOptions{MaxIter: 4000, Tol: 1e-12})
	var loss float64
	for r := 0; r < train.Rows(); r++ {
		loss += solver.LogLoss(train.Labels[r] * train.X.RowDot(r, x))
	}
	fFISTA := loss + lambda*vec.Nrm1(x)
	if math.Abs(fADMM-fFISTA) > 5e-3*(1+math.Abs(fFISTA)) {
		t.Fatalf("solvers disagree on f*: ADMM %v vs FISTA %v (FISTA converged=%v after %d iters)",
			fADMM, fFISTA, fres.Converged, fres.Iters)
	}
}
