package psrahgadmm

// Cross-path integration tests: the real message-passing WLG runtime
// (goroutines over the channel fabric — the code path cmd/psra-worker
// ships) and the deterministic simulation engine must agree on the
// numerics, since they implement the same recursion over the same
// substrate packages.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

// runWLGLogistic trains L1-logreg over the real WLG runtime and returns
// the consensus iterate after maxIter iterations.
func runWLGLogistic(t *testing.T, train *Dataset, topo simnet.Topology, rho, lambda float64, maxIter, threshold int) []float64 {
	t.Helper()
	fab := transport.NewChanFabric(wlg.WorldSize(topo))
	defer fab.Close()
	cfg := wlg.Config{Topo: topo, MaxIter: maxIter, GroupThreshold: threshold}
	shards := train.Shard(topo.Size())
	dim := train.Dim()

	var wg sync.WaitGroup
	errCh := make(chan error, wlg.WorldSize(topo))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := wlg.RunGG(fab.Endpoint(wlg.GGRank(topo)), cfg); err != nil {
			errCh <- fmt.Errorf("GG: %w", err)
		}
	}()
	finalZ := make([][]float64, topo.Size())
	for rank := 0; rank < topo.Size(); rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			x := make([]float64, dim)
			y := make([]float64, dim)
			z := make([]float64, dim)
			w := make([]float64, dim)
			obj := solver.NewLogisticProx(shards[rank].X, shards[rank].Labels, rho, y, z)
			funcs := wlg.WorkerFuncs{
				ComputeW: func(iter int) []float64 {
					solver.TRON(obj, x, solver.TronOptions{GradTol: 1e-9, MaxIter: 100, MaxCG: 100, CGTol: 1e-4})
					solver.WLocal(w, y, x, rho)
					return w
				},
				ApplyW: func(iter int, bigW []float64, contributors int) {
					solver.ZUpdateL1(z, bigW, lambda, rho, contributors)
					solver.DualUpdate(y, x, z, rho)
				},
			}
			if err := wlg.RunWorker(fab.Endpoint(rank), cfg, funcs); err != nil {
				errCh <- fmt.Errorf("worker %d: %w", rank, err)
			}
			finalZ[rank] = vec.Clone(z)
		}(rank)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for rank := 1; rank < topo.Size(); rank++ {
		if !vec.WithinTol(finalZ[rank], finalZ[0], 1e-9) {
			t.Fatalf("WLG rank %d not in consensus with rank 0", rank)
		}
	}
	return finalZ[0]
}

func TestWLGRuntimeMatchesEngine(t *testing.T) {
	train, _, err := Generate(News20Like(0.0005, 21))
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	const (
		rho, lambda = 1.0, 1.0
		iters       = 15
	)

	// Real runtime (exact consensus: one global group).
	zWLG := runWLGLogistic(t, train, topo, rho, lambda, iters, 0)

	// Simulation engine on the identical problem.
	cfg := Config{
		Algorithm: PSRAHGADMM,
		Topo:      topo,
		Rho:       rho, Lambda: lambda, MaxIter: iters,
		Tron: solver.TronOptions{GradTol: 1e-9, MaxIter: 100, MaxCG: 100, CGTol: 1e-4},
	}
	res, err := Train(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Same consensus iterate, bit for bit: psra-worker's callbacks and
	// core.Run are the same recursion. On a shard's column support both run
	// the same TRON body on the same compacted objective (solver's
	// restriction for the callbacks' full-dimension one, the engine's own
	// compaction), so equal (y, z) in give equal bits out. Off the support
	// the callbacks hand the consensus y_j + ρ(z_j − y_j/ρ) and the engine
	// ρ·z_j: identical when z_j = 0, which at λ = 1 is all but a handful of
	// coordinates, and otherwise within a rounding that leaves this problem's
	// aggregate untouched. (A denser z — λ = 0.1, say — does pick up last-bit
	// differences in W there, which TRON's discrete stopping rule then
	// amplifies to ~1e-9; that would be rounding, not a different recursion.)
	if len(zWLG) != len(res.Z) {
		t.Fatalf("dimension mismatch %d vs %d", len(zWLG), len(res.Z))
	}
	for i := range zWLG {
		if zWLG[i] != res.Z[i] {
			t.Fatalf("WLG runtime and engine differ at coordinate %d: %v vs %v (Δ = %v)",
				i, zWLG[i], res.Z[i], math.Abs(zWLG[i]-res.Z[i]))
		}
	}
}

func TestWLGRuntimeGroupedStillConverges(t *testing.T) {
	// Grouped (threshold 1 = per-node groups) WLG training must still
	// reduce each shard's loss even though consensus is group-local.
	train, _, err := Generate(News20Like(0.0005, 22))
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	z := runWLGLogisticGrouped(t, train, topo, 12)
	if vec.CountNonzero(z) == 0 {
		t.Fatal("grouped WLG training produced the zero model")
	}
	if acc := train.Accuracy(z); acc < 0.6 {
		t.Fatalf("grouped WLG training accuracy %v", acc)
	}
}

// runWLGLogisticGrouped runs with threshold 1 (node-local groups) and
// returns node 0's final z.
func runWLGLogisticGrouped(t *testing.T, train *Dataset, topo simnet.Topology, iters int) []float64 {
	t.Helper()
	fab := transport.NewChanFabric(wlg.WorldSize(topo))
	defer fab.Close()
	cfg := wlg.Config{Topo: topo, MaxIter: iters, GroupThreshold: 1}
	shards := train.Shard(topo.Size())
	dim := train.Dim()

	var wg sync.WaitGroup
	errCh := make(chan error, wlg.WorldSize(topo))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := wlg.RunGG(fab.Endpoint(wlg.GGRank(topo)), cfg); err != nil {
			errCh <- err
		}
	}()
	var z0 []float64
	var mu sync.Mutex
	for rank := 0; rank < topo.Size(); rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			x := make([]float64, dim)
			y := make([]float64, dim)
			z := make([]float64, dim)
			w := make([]float64, dim)
			obj := solver.NewLogisticProx(shards[rank].X, shards[rank].Labels, 1, y, z)
			funcs := wlg.WorkerFuncs{
				ComputeW: func(iter int) []float64 {
					solver.TRON(obj, x, solver.TronOptions{MaxIter: 20})
					solver.WLocal(w, y, x, 1)
					return w
				},
				ApplyW: func(iter int, bigW []float64, contributors int) {
					solver.ZUpdateL1(z, bigW, 1, 1, contributors)
					solver.DualUpdate(y, x, z, 1)
				},
			}
			if err := wlg.RunWorker(fab.Endpoint(rank), cfg, funcs); err != nil {
				errCh <- err
			}
			if rank == 0 {
				mu.Lock()
				z0 = vec.Clone(z)
				mu.Unlock()
			}
		}(rank)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return z0
}
