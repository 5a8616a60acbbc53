package psrahgadmm

// Cross-runtime integration tests: the real message-passing WLG runtime
// (goroutines over the channel fabric, the code path cmd/psra-worker ships)
// and the deterministic simulation engine run one per-rank worker —
// core.Rank is the engine's worker in wlg.WorkerFuncs' shape — so they
// differ only in how W is reduced, and their z iterates agree bit for bit.

import (
	"fmt"
	"math"
	"testing"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

// runWLG trains cfg's L1-logreg over the real WLG runtime, one core.Rank a
// worker, for cfg.MaxIter iterations and returns every rank's final z.
func runWLG(t *testing.T, train *Dataset, cfg Config, threshold int) [][]float64 {
	t.Helper()
	topo := cfg.Topo
	shards := train.Shard(topo.Size())
	ranks := make([]*core.Rank, topo.Size())
	for r := range ranks {
		ranks[r] = core.NewRank(cfg, r, shards[r])
	}
	fab := transport.NewChanFabric(wlg.WorldSize(topo))
	defer fab.Close()
	wcfg := wlg.Config{Topo: topo, MaxIter: cfg.MaxIter, GroupThreshold: threshold}
	if _, err := wlg.RunWithInfo(fab, wcfg, func(r int) wlg.WorkerFuncs {
		return wlg.WorkerFuncs{ComputeW: ranks[r].ComputeW, ApplyW: ranks[r].ApplyW}
	}); err != nil {
		t.Fatal(err)
	}
	zs := make([][]float64, len(ranks))
	for r, rk := range ranks {
		zs[r] = rk.Z()
	}
	return zs
}

// TestWLGRuntimeMatchesEngine: one global group is exact consensus, so
// every WLG rank ends on core.Run's z, bit for bit, under the default TRON
// options psra-worker runs with. The λ = 0.1 run keeps z dense enough that
// a second copy of the per-rank math, rounding differently off the shard's
// support, would show. The world stays 2×2: the engine's z is the mean of
// the ranks' equal views, which is exact for four ranks.
func TestWLGRuntimeMatchesEngine(t *testing.T) {
	train, _, err := Generate(News20Like(0.0005, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{1, 0.1} {
		t.Run(fmt.Sprintf("lambda=%g", lambda), func(t *testing.T) {
			cfg := Config{
				Algorithm: PSRAHGADMM,
				Topo:      simnet.Topology{Nodes: 2, WorkersPerNode: 2},
				Rho:       1, Lambda: lambda, MaxIter: 15,
			}
			zs := runWLG(t, train, cfg, 0)
			res, err := Train(cfg, train, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if vec.CountNonzero(res.Z) == 0 {
				t.Fatal("the engine ended on the zero model; the comparison would be vacuous")
			}
			for r, z := range zs {
				for i := range z {
					if math.Float64bits(z[i]) != math.Float64bits(res.Z[i]) {
						t.Fatalf("WLG rank %d and the engine differ at coordinate %d: %v vs %v (Δ = %v)",
							r, i, z[i], res.Z[i], math.Abs(z[i]-res.Z[i]))
					}
				}
			}
		})
	}
}

func TestWLGRuntimeGroupedStillConverges(t *testing.T) {
	// Grouped (threshold 1 = per-node groups) WLG training must still
	// reduce each shard's loss even though consensus is group-local.
	train, _, err := Generate(News20Like(0.0005, 22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: simnet.Topology{Nodes: 2, WorkersPerNode: 2}, Rho: 1, Lambda: 1, MaxIter: 12}
	z := runWLG(t, train, cfg, 1)[0]
	if vec.CountNonzero(z) == 0 {
		t.Fatal("grouped WLG training produced the zero model")
	}
	if acc := train.Accuracy(z); acc < 0.6 {
		t.Fatalf("grouped WLG training accuracy %v", acc)
	}
}
