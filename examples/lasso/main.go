// Consensus lasso over the WLG runtime: the engine's building blocks
// (TRON, the prox z-update, the Worker-Leader-Group generator) are
// objective-generic — here they solve
//
//	min_x ½‖Ax − b‖² + λ‖x‖₁
//
// distributed across 3 nodes × 2 workers as a *real* message-passing
// program (goroutines over the channel fabric, the same code path the TCP
// cluster uses), not the simulation engine.
//
// It writes its own callbacks, not core.Rank: the engine's per-rank worker
// is logistic-only.
//
//	go run ./examples/lasso
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

const (
	dim     = 200
	rows    = 240 // total samples
	rho     = 1.0
	lambda  = 0.5
	maxIter = 60
)

func main() {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	nWorkers := topo.Size()

	// Plant a sparse ground truth and synthesize A·x* + noise = b.
	r := rand.New(rand.NewSource(7))
	xTrue := make([]float64, dim)
	for i := 0; i < 12; i++ {
		xTrue[r.Intn(dim)] = r.NormFloat64() * 3
	}
	shardsA := make([]*sparse.CSR, nWorkers)
	shardsB := make([][]float64, nWorkers)
	perShard := rows / nWorkers
	for s := 0; s < nWorkers; s++ {
		m := sparse.NewCSR(0, dim, 0)
		b := make([]float64, perShard)
		for i := 0; i < perShard; i++ {
			var cols []int32
			var vals []float64
			for c := 0; c < dim; c++ {
				if r.Float64() < 0.1 {
					cols = append(cols, int32(c))
					vals = append(vals, r.NormFloat64())
				}
			}
			m.AppendRow(cols, vals)
			b[i] = m.RowDot(i, xTrue) + 0.01*r.NormFloat64()
		}
		shardsA[s] = m
		shardsB[s] = b
	}

	// One endpoint per worker plus the Group Generator.
	fab := transport.NewChanFabric(wlg.WorldSize(topo))
	defer fab.Close()
	cfg := wlg.Config{Topo: topo, MaxIter: maxIter, GroupThreshold: 0}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := wlg.RunGG(fab.Endpoint(wlg.GGRank(topo)), cfg); err != nil {
			log.Fatal(err)
		}
	}()

	finalZ := make([][]float64, nWorkers)
	for rank := 0; rank < nWorkers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			x := make([]float64, dim)
			y := make([]float64, dim)
			z := make([]float64, dim)
			w := make([]float64, dim)
			obj := solver.NewLeastSquaresProx(shardsA[rank], shardsB[rank], rho, y, z)
			funcs := wlg.WorkerFuncs{
				ComputeW: func(iter int) []float64 {
					solver.TRON(obj, x, solver.TronOptions{MaxIter: 15})
					solver.WLocal(w, y, x, rho)
					return w
				},
				ApplyW: func(iter int, bigW []float64, contributors int) {
					solver.ZUpdateL1(z, bigW, lambda, rho, contributors)
					solver.DualUpdate(y, x, z, rho)
					if rank == 0 && (iter%10 == 0 || iter == maxIter-1) {
						fmt.Printf("iter %2d  shard-0 residual %.4f  ‖z‖₀ = %d\n",
							iter+1, obj.LocalLoss(z), vec.CountNonzero(z))
					}
				},
			}
			if err := wlg.RunWorker(fab.Endpoint(rank), cfg, funcs); err != nil {
				log.Fatal(err)
			}
			finalZ[rank] = vec.Clone(z)
		}(rank)
	}
	wg.Wait()

	// All workers agree on z (exact consensus with one global group).
	for rank := 1; rank < nWorkers; rank++ {
		if !vec.WithinTol(finalZ[rank], finalZ[0], 1e-9) {
			log.Fatalf("worker %d diverged from consensus", rank)
		}
	}
	fmt.Printf("\nrecovered support %d (true %d), ‖ẑ − x*‖₂ = %.4f\n",
		vec.CountNonzero(finalZ[0]), vec.CountNonzero(xTrue),
		dist(finalZ[0], xTrue))
}

func dist(a, b []float64) float64 {
	d := make([]float64, len(a))
	vec.Sub(d, a, b)
	return vec.Nrm2(d)
}
