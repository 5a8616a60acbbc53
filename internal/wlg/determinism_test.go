package wlg

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// runWorld executes a complete WLG world (fail-stop or elastic, per cfg)
// over fab and returns every worker's applied aggregate per iteration.
// contribution also sees the aggregate the rank applied the iteration
// before (nil at the first), so a test can close the loop the way ADMM
// does. The run must finish: a hang fails the test instead of the suite.
func runWorld(t *testing.T, fab transport.Fabric, cfg Config, contribution func(rank, iter int, prev []float64) []float64) [][][]float64 {
	t.Helper()
	agg := make([][][]float64, cfg.Topo.Size())
	for r := range agg {
		agg[r] = make([][]float64, cfg.MaxIter)
	}
	// The runtime calls a rank's callbacks in order from that rank's own
	// goroutine, and each rank touches only agg[rank]: no lock needed.
	funcs := func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				var prev []float64
				if iter > cfg.StartIter {
					prev = agg[rank][iter-1]
				}
				return contribution(rank, iter, prev)
			},
			ApplyW: func(iter int, w []float64, n int) { agg[rank][iter] = vec.Clone(w) },
		}
	}
	done := make(chan error, 1)
	go func() { done <- Run(fab, cfg, funcs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wlg run failed: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("wlg run hung")
	}
	return agg
}

// TestGroupOrderIndependentOfArrival pins the ordering invariant: which
// Leader reaches the Group Generator first must change neither a bit of
// the consensus nor a byte on any link. The same Config runs twice over
// FaultFabrics whose differently-seeded delays (every send held up to a
// few milliseconds) scramble the Leaders' arrival order at the GG, with a
// feedback loop (w depends on the previous z) so one reordered sum would
// compound. Values are irrational-ish and span magnitudes, so a changed
// summation order changes low bits; supports overlap only partially, so a
// changed PSR chunk ownership changes frame sizes.
func TestGroupOrderIndependentOfArrival(t *testing.T) {
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 2}
	const dim, iters = 96, 6
	for _, codec := range []exchange.Kind{exchange.Sparse, exchange.TopK} {
		for _, elastic := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/elastic=%v", codec, elastic), func(t *testing.T) {
				cfg := Config{
					Topo: topo, MaxIter: iters, Codec: codec, Elastic: elastic,
					// No wait in this test should ever expire: a re-sent
					// control would change the byte counts for a reason
					// that has nothing to do with ordering.
					Retry: collective.RetryPolicy{Attempts: 6, BaseDelay: 500 * time.Millisecond, MaxDelay: 10 * time.Second},
				}
				run := func(seed int64) ([][]float64, []int64) {
					fab := transport.NewFaultFabric(transport.NewChanFabric(WorldSize(topo)),
						transport.FaultPlan{Seed: seed, DelayProb: 1, MaxDelay: 3 * time.Millisecond})
					defer fab.Close()
					agg := runWorld(t, fab, cfg, func(r, iter int, prev []float64) []float64 {
						w := make([]float64, dim)
						for j := range w {
							if (j+r)%3 == 0 {
								continue // rank-dependent holes: supports overlap partially
							}
							w[j] = math.Sin(float64(131*r+17*j+7*iter)) * math.Pow(10, float64(r%4))
							if prev != nil {
								w[j] += prev[j] / 16
							}
						}
						return w
					})
					final := make([][]float64, topo.Size())
					bytes := make([]int64, fab.Size())
					for r := range final {
						final[r] = agg[r][iters-1]
					}
					for r := range bytes {
						bytes[r] = fab.Endpoint(r).Stats().BytesSent
					}
					return final, bytes
				}
				z1, b1 := run(1)
				z2, b2 := run(2)
				for r := range z1 {
					if !vec.Equal(z1[r], z2[r]) {
						t.Fatalf("rank %d: final aggregate differs between two runs that differ only in arrival order", r)
					}
				}
				if !slices.Equal(b1, b2) {
					t.Fatalf("per-rank BytesSent differ between runs:\n%v\n%v", b1, b2)
				}
			})
		}
	}
}

// TestRobustFlushOverPartialSupports checks the elastic GG's sparse
// trimmed-mean flush against the dense definition it replaced: per
// coordinate, sort the node sums — a node that did not store the
// coordinate counts as an exact zero — drop TrimF from each side, average
// the rest, and scale by the node count (ApplyW divides by contributors).
func TestRobustFlushOverPartialSupports(t *testing.T) {
	topo := simnet.Topology{Nodes: 5, WorkersPerNode: 1}
	const dim = 12
	cfg := Config{Topo: topo, MaxIter: 1, Elastic: true, Aggregator: collective.AggTrimmedMeanName, TrimF: 1}
	contrib := func(r, _ int, _ []float64) []float64 {
		w := make([]float64, dim)
		for j := range w {
			// Node r stores coordinate j only when (j+r)%3 != 0; coordinate
			// 11 is stored by nobody; node 4 is an outlier where it stores.
			if j == 11 || (j+r)%3 == 0 {
				continue
			}
			w[j] = float64(j+1) * (1 + 0.25*float64(r))
			if r == 4 {
				w[j] *= -1e6
			}
		}
		return w
	}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	agg := runWorld(t, fab, cfg, contrib)

	want := make([]float64, dim)
	col := make([]float64, topo.Nodes)
	for j := range want {
		for r := range col {
			col[r] = contrib(r, 0, nil)[j]
		}
		slices.Sort(col)
		kept := col[1 : len(col)-1]
		s := 0.0
		for _, x := range kept {
			s += x
		}
		want[j] = s / float64(len(kept)) * float64(topo.Nodes)
	}
	for r := 0; r < topo.Size(); r++ {
		if !vec.Equal(agg[r][0], want) {
			t.Fatalf("rank %d applied %v, want the dense trimmed mean %v", r, agg[r][0], want)
		}
	}
}

// TestRobustSingleEntryGroupMatchesMean: with GroupThreshold 1 every GG
// flush is a one-node group, where a robust center × 1 is the node sum
// itself — so a robust run must reproduce the mean run bit for bit, on
// the same combine path rather than through a single-entry special case.
func TestRobustSingleEntryGroupMatchesMean(t *testing.T) {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	const dim, iters = 48, 4
	run := func(aggregator string) [][][]float64 {
		cfg := Config{Topo: topo, MaxIter: iters, Elastic: true, GroupThreshold: 1, Aggregator: aggregator}
		fab := transport.NewChanFabric(WorldSize(topo))
		defer fab.Close()
		return runWorld(t, fab, cfg, func(r, iter int, prev []float64) []float64 {
			w := make([]float64, dim)
			for j := range w {
				if (j+r)%3 == 0 {
					continue
				}
				w[j] = math.Sin(float64(131*r+17*j+7*iter)) * math.Pow(10, float64(r%4))
				if prev != nil {
					w[j] += prev[j] / 16
				}
			}
			return w
		})
	}
	mean := run(collective.AggMeanName)
	for _, aggregator := range []string{collective.AggTrimmedMeanName, collective.AggMedianName} {
		robust := run(aggregator)
		for r := range mean {
			for iter := range mean[r] {
				if !vec.Equal(robust[r][iter], mean[r][iter]) {
					t.Fatalf("%s: rank %d iteration %d: single-entry group aggregate differs from the mean run", aggregator, r, iter)
				}
			}
		}
	}
}
