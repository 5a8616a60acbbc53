package core

import (
	"testing"

	"psrahgadmm/internal/collective"
)

// TestRegistryVariantsReachReferenceOptimum is the cross-variant
// equivalence check: every registered algorithm, run on the degenerate
// 1-node × 2-worker cluster where hierarchy, grouping, and partial
// barriers all collapse, must reach the same global optimum of the
// L1-logistic problem. Strategies differ in WHO/WHEN/WHAT they
// communicate, never in the fixed point of the recursion.
func TestRegistryVariantsReachReferenceOptimum(t *testing.T) {
	train, _ := testData(t, 120)
	rho, lambda := 1.0, 0.5
	fstar, _, err := ReferenceOptimum(train, rho, lambda, 250)
	if err != nil {
		t.Fatal(err)
	}
	if isNaN(fstar) || fstar <= 0 {
		t.Fatalf("degenerate reference optimum %v", fstar)
	}
	for _, v := range Variants() {
		v := v
		t.Run(string(v.Name), func(t *testing.T) {
			cfg := baseConfig(v.Name, 1, 2)
			tol := 0.02
			if v.Aggregator == collective.AggTrimmedMeanName {
				// A trimmed mean needs 2·TrimF < N contributors at its
				// combine point — workers for flat, node partials for the
				// tree; run the robust variants on 4×1, where either way one
				// trim per side still leaves half of four. A robust center
				// is NOT the mean: with ~30 rows per worker the per-rank
				// duals spread widely, so the trimmed fixed point sits a
				// few percent off f* (the heterogeneity bias every robust
				// aggregator pays). This test only checks convergence to
				// that nearby robust consensus; the Byzantine chaos test
				// checks tightness on an IID-sharded problem where the
				// bias vanishes.
				cfg = baseConfig(v.Name, 4, 1)
				tol = 0.2
			}
			// Generous budget and tight inner solves: the lossy and
			// stale variants converge slower, but all must arrive.
			cfg.MaxIter = 160
			cfg.Rho = rho
			cfg.Lambda = lambda
			cfg.Tron.MaxIter = 40
			cfg.EvalEvery = cfg.MaxIter // only the endpoint matters
			res, err := Run(cfg, train, RunOptions{FStar: fstar, HaveFStar: true})
			if err != nil {
				t.Fatal(err)
			}
			last := res.History[len(res.History)-1]
			// Tolerance covers the quantized codecs' precision floor;
			// exact variants land far inside it.
			if isNaN(last.RelError) || last.RelError > tol {
				t.Fatalf("%s: relative error %v vs f*=%v (objective %v)",
					v.Name, last.RelError, fstar, last.Objective)
			}
		})
	}
}
