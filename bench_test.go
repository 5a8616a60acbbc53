package psrahgadmm

// One testing.B benchmark per paper table/figure, driving the same
// experiment harness as cmd/psra-bench in quick mode (shrunken sweeps so
// `go test -bench=.` completes in minutes; run the CLI for full-scale
// sweeps and EXPERIMENTS.md for recorded results), plus ablation and
// micro benchmarks for the design choices DESIGN.md §5 calls out.

import (
	"fmt"
	"io"
	"testing"

	"psrahgadmm/internal/bench"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
)

func benchOpts() bench.Options {
	return bench.Options{Out: io.Discard, Quick: true, Seed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.RunExperiment(id, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DatasetStats regenerates Table 1 (dataset summary).
func BenchmarkTable1DatasetStats(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig5Convergence regenerates Figure 5 (relative error vs
// iteration for PSRA-HGADMM / ADMMLib / AD-ADMM across worker counts).
func BenchmarkFig5Convergence(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6SystemTime regenerates Figure 6 (calculation/communication
// time split and accuracy vs cluster size).
func BenchmarkFig6SystemTime(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7DynamicGrouping regenerates Figure 7 (dynamic grouping vs
// ungrouped under injected stragglers).
func BenchmarkFig7DynamicGrouping(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkAllreduceSparseCost regenerates the §4.2 cost-envelope study
// (eqs. 11–16): Ring vs PSR allreduce under extreme nonzero placements.
func BenchmarkAllreduceSparseCost(b *testing.B) { runExperiment(b, "costmodel") }

// BenchmarkDesignAblations runs the DESIGN.md §5 ablation suite
// (threshold sweep, hierarchy on/off, TRON budget, BSP vs SSP).
func BenchmarkDesignAblations(b *testing.B) { runExperiment(b, "ablation") }

// trainBench runs one engine training at a fixed small configuration.
func trainBench(b *testing.B, alg Algorithm) {
	b.Helper()
	train, _, err := Generate(News20Like(0.001, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Algorithm: alg,
		Topo:      Topology{Nodes: 4, WorkersPerNode: 2},
		Rho:       1, Lambda: 1, MaxIter: 10,
		EvalEvery: 10,
		Tron:      solver.TronOptions{MaxIter: 8, MaxCG: 15},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, train, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-algorithm engine benchmarks (10 iterations, 8 workers).
func BenchmarkEnginePSRAHGADMM(b *testing.B)      { trainBench(b, PSRAHGADMM) }
func BenchmarkEnginePSRAHGADMMGroup(b *testing.B) { trainBench(b, PSRAHGADMMGroup) }
func BenchmarkEnginePSRAADMM(b *testing.B)        { trainBench(b, PSRAADMM) }
func BenchmarkEngineADMMLib(b *testing.B)         { trainBench(b, ADMMLib) }
func BenchmarkEngineADADMM(b *testing.B)          { trainBench(b, ADADMM) }
func BenchmarkEngineGCADMM(b *testing.B)          { trainBench(b, GCADMM) }

// BenchmarkGroupThresholdAblation sweeps the GQ threshold at fixed
// cluster size under stragglers (timing/consensus trade-off).
func BenchmarkGroupThresholdAblation(b *testing.B) {
	train, _, err := Generate(News20Like(0.001, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			cfg := Config{
				Algorithm: PSRAHGADMMGroup,
				Topo:      Topology{Nodes: 8, WorkersPerNode: 1},
				Rho:       1, Lambda: 1, MaxIter: 10,
				GroupThreshold: th,
				EvalEvery:      10,
				Stragglers:     simnet.Stragglers{Seed: 5, Prob: 0.1, Delay: 2e-3},
				Tron:           solver.TronOptions{MaxIter: 8, MaxCG: 15},
			}
			var commTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Train(cfg, train, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				commTime = res.TotalCommTime
			}
			b.ReportMetric(commTime*1e3, "virtual-comm-ms")
		})
	}
}

// BenchmarkHierarchyAblation compares hierarchical PSRA-HGADMM against
// flat PSRA-ADMM at identical numerics.
func BenchmarkHierarchyAblation(b *testing.B) {
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAADMM} {
		b.Run(string(alg), func(b *testing.B) { trainBench(b, alg) })
	}
}

// BenchmarkTronBudget measures the subproblem-budget ablation: outer
// ADMM progress per inner Newton budget.
func BenchmarkTronBudget(b *testing.B) {
	train, _, err := Generate(News20Like(0.001, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, mi := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("maxNewton=%d", mi), func(b *testing.B) {
			cfg := Config{
				Algorithm: GCADMM,
				Topo:      Topology{Nodes: 2, WorkersPerNode: 2},
				Rho:       1, Lambda: 1, MaxIter: 10,
				EvalEvery: 10,
				Tron:      solver.TronOptions{MaxIter: mi},
			}
			var obj float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Train(cfg, train, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				obj = res.FinalObjective()
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

// BenchmarkComputeModelAblation compares BSP (exact, waits) against SSP
// (stale, no waits) at fixed hierarchical topology under core engine cost.
func BenchmarkComputeModelAblation(b *testing.B) {
	for _, row := range []struct {
		name string
		alg  Algorithm
	}{{"BSP", PSRAHGADMM}, {"SSP", ADMMLib}} {
		b.Run(row.name, func(b *testing.B) { trainBench(b, row.alg) })
	}
}

// BenchmarkReferenceOptimum measures the f* reference solve.
func BenchmarkReferenceOptimum(b *testing.B) {
	train, _, err := Generate(News20Like(0.0005, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReferenceOptimum(train, 1, 1, 50); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = core.Algorithms // assert the internal package stays reachable from the root
