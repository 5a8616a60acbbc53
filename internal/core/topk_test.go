package core

import (
	"testing"

	"psrahgadmm/internal/raceflag"
)

// The top-k acceptance suite: the codec-axis contract is that top-k
// error-feedback sparsification changes WHAT travels, not WHERE the
// recursion converges. The reference optimum comes from the dense
// single-worker solve (ReferenceOptimum), so the comparison crosses the
// codec axis entirely.

func topkRefConfig(alg Algorithm, nodes, wpn int) Config {
	cfg := baseConfig(alg, nodes, wpn)
	cfg.MaxIter = 200
	cfg.Tron.MaxIter = 40
	cfg.EvalEvery = cfg.MaxIter // only the endpoint matters
	return cfg
}

// TestTopKConvergesToDenseReference pins the tentpole acceptance
// criterion: the hierarchical and flat top-k variants, compressing well
// below the problem dimension, land within 1e-3 relative error of the
// dense reference optimum.
func TestTopKConvergesToDenseReference(t *testing.T) {
	train, _ := testData(t, 120) // dim 200
	fstar, _, err := ReferenceOptimum(train, 1.0, 0.5, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PSRAHGADMMTopK, PSRAHGADMMTopKQ8, PSRAADMMTopK} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := topkRefConfig(alg, 2, 2)
			cfg.CodecTopK = 80 // 2.5x compression on dim 200
			res, err := Run(cfg, train, RunOptions{FStar: fstar, HaveFStar: true})
			if err != nil {
				t.Fatal(err)
			}
			last := res.History[len(res.History)-1]
			if isNaN(last.RelError) || last.RelError > 1e-3 {
				t.Fatalf("%s k=%d: relative error %v vs f*=%v (objective %v)",
					alg, cfg.CodecTopK, last.RelError, fstar, last.Objective)
			}
		})
	}
}

// TestTopKErrorFeedbackLoadBearing is the ablation: the identical run
// with the residual accumulator disabled (pure lossy truncation) must
// stall measurably short of the optimum, demonstrating the carried
// residual — not the selection rule — is what preserves convergence. At
// k=48 (dim 200) pure truncation freezes at a bias floor above the
// 1e-3 acceptance line while the error-feedback run lands well under it;
// both floors are stable from 200 through 800 iterations, so the
// assertions below are not horizon-sensitive.
func TestTopKErrorFeedbackLoadBearing(t *testing.T) {
	train, _ := testData(t, 120)
	fstar, _, err := ReferenceOptimum(train, 1.0, 0.5, 250)
	if err != nil {
		t.Fatal(err)
	}
	run := func(noEF bool) float64 {
		cfg := topkRefConfig(PSRAADMMTopK, 2, 2)
		cfg.CodecTopK = 48
		cfg.codecNoErrorFeedback = noEF
		res, err := Run(cfg, train, RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.History[len(res.History)-1].RelError
	}
	withEF, withoutEF := run(false), run(true)
	t.Logf("relative error: with error feedback %v, without %v", withEF, withoutEF)
	if isNaN(withEF) || withEF > 1e-3 {
		t.Fatalf("error-feedback run missed the acceptance line: %v > 1e-3", withEF)
	}
	if isNaN(withoutEF) || withoutEF <= 1e-3 || withoutEF < 3*withEF {
		t.Fatalf("ablation did not degrade: with EF %v, without EF %v", withEF, withoutEF)
	}
}

// TestTopKBytesBelowSparse checks the communication side of the trade:
// at equal iterations on the same cluster, the top-k variant's total
// trace bytes must land measurably below the exact sparse codec's.
func TestTopKBytesBelowSparse(t *testing.T) {
	train, _ := testData(t, 120)
	run := func(alg Algorithm, k int) int64 {
		cfg := topkRefConfig(alg, 2, 2)
		cfg.MaxIter = 60
		cfg.CodecTopK = k
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes
	}
	sparseBytes := run(PSRAHGADMM, 0)
	topkBytes := run(PSRAHGADMMTopK, 48)
	t.Logf("total bytes at 60 iterations: sparse %d, topk %d", sparseBytes, topkBytes)
	if topkBytes >= sparseBytes*8/10 {
		t.Fatalf("topk bytes %d not measurably below sparse %d", topkBytes, sparseBytes)
	}
}

// TestTopKBudgetAdaptsK checks the adaptive loop end to end: a byte
// budget below the default-k traffic must shrink the observed
// per-iteration bytes toward the budget, and a deliberately huge budget
// must not (k is already clamped at KMax).
func TestTopKBudgetAdaptsK(t *testing.T) {
	train, _ := testData(t, 120)
	run := func(budget int64) *Result {
		cfg := topkRefConfig(PSRAADMMTopK, 2, 2)
		cfg.MaxIter = 60
		cfg.CodecBudgetBytes = budget
		res, err := Run(cfg, train, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	tail := func(r *Result) int64 { // mean per-iteration bytes, last 20 rounds
		var sum int64
		h := r.History[len(r.History)-20:]
		for _, s := range h {
			sum += s.Bytes
		}
		return sum / int64(len(h))
	}
	budget := tail(free) / 2
	capped := run(budget)
	t.Logf("tail bytes/iter: unbudgeted %d, budget %d -> %d", tail(free), budget, tail(capped))
	if got := tail(capped); got >= tail(free) {
		t.Fatalf("budget %d did not reduce tail bytes/iter: %d vs unbudgeted %d", budget, got, tail(free))
	}
	// The budget must overshoot at most 2x: Adapt's halving smoothing
	// converges k geometrically, so 40 rounds is plenty.
	if got := tail(capped); got > 2*budget {
		t.Fatalf("tail bytes/iter %d more than doubles budget %d", got, budget)
	}
}

// TestTopKSteadyStateAllocBudget extends the zero-allocation discipline
// to the stateful codec path: a warmed flat-PSR round encoding through
// the per-rank error-feedback states stays within the same small heap
// budget as the stateless composition.
func TestTopKSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMMTopK, 3, 2)
	cfg.EvalEvery = 1 << 20
	cfg.CodecTopK = 48 // well below the contributions' nnz: selection runs every round

	const budget = 8.0
	got := marginalAllocs(t, cfg, train, 30, 130)
	t.Logf("topk steady-state allocations: %.2f objects/iter (budget %g)", got, budget)
	if got > budget {
		t.Fatalf("topk steady-state allocations: %.2f objects/iter exceeds budget %g", got, budget)
	}
}
