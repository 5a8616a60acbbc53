package wlg

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// runWLG executes a full WLG world on a chan fabric. contribution(rank,
// iter) supplies each worker's w; the returned slices record every
// worker's received aggregate and contributor count per iteration.
func runWLG(t *testing.T, cfg Config, dim int,
	contribution func(rank, iter int) []float64) ([][][]float64, [][]int) {
	t.Helper()
	topo := cfg.Topo
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()

	aggregates := make([][][]float64, topo.Size())
	counts := make([][]int, topo.Size())
	for r := range aggregates {
		aggregates[r] = make([][]float64, cfg.MaxIter)
		counts[r] = make([]int, cfg.MaxIter)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, WorldSize(topo))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunGG(f.Endpoint(GGRank(topo)), cfg); err != nil {
			errCh <- fmt.Errorf("GG: %w", err)
		}
	}()
	for r := 0; r < topo.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			funcs := WorkerFuncs{
				ComputeW: func(iter int) []float64 { return contribution(r, iter) },
				ApplyW: func(iter int, w []float64, n int) {
					aggregates[r][iter] = vec.Clone(w)
					counts[r][iter] = n
				},
			}
			if err := RunWorker(f.Endpoint(r), cfg, funcs); err != nil {
				errCh <- fmt.Errorf("worker %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return aggregates, counts
}

// rankVec gives rank r a distinguishable contribution: value 2^r in every
// slot, so any aggregate identifies exactly which ranks were summed.
func rankVec(dim, r int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Ldexp(1, r)
	}
	return v
}

// decodeRanks recovers the set of summed ranks from a 2^r-sum.
func decodeRanks(sum float64, worldSize int) map[int]bool {
	out := map[int]bool{}
	bits := int64(sum)
	for r := 0; r < worldSize; r++ {
		if bits&(1<<r) != 0 {
			out[r] = true
		}
	}
	return out
}

func TestSingleGroupIsExactConsensus(t *testing.T) {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 3, GroupThreshold: 0} // clamp → all nodes
	dim := 7
	agg, counts := runWLG(t, cfg, dim, func(r, iter int) []float64 {
		v := rankVec(dim, r)
		vec.Scale(float64(iter+1), v)
		return v
	})
	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if counts[r][iter] != topo.Size() {
				t.Fatalf("rank %d iter %d contributors = %d, want %d", r, iter, counts[r][iter], topo.Size())
			}
			wantSum := float64(iter+1) * float64(int(1)<<topo.Size()-1)
			for j, got := range agg[r][iter] {
				if got != wantSum {
					t.Fatalf("rank %d iter %d slot %d = %v, want %v", r, iter, j, got, wantSum)
				}
			}
		}
	}
}

func TestGroupedAggregationPartitionsNodes(t *testing.T) {
	topo := simnet.Topology{Nodes: 6, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 4, GroupThreshold: 3}
	dim := 3
	agg, counts := runWLG(t, cfg, dim, func(r, iter int) []float64 {
		return rankVec(dim, r)
	})
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Each worker's aggregate must decode to a set of whole nodes
		// including its own, with contributor count matching.
		covered := map[int]int{} // node → group fingerprint share
		for r := 0; r < topo.Size(); r++ {
			got := agg[r][iter][0]
			ranks := decodeRanks(got, topo.Size())
			if !ranks[r] {
				t.Fatalf("iter %d rank %d: own contribution missing", iter, r)
			}
			if len(ranks) != counts[r][iter] {
				t.Fatalf("iter %d rank %d: %d ranks summed but count says %d",
					iter, r, len(ranks), counts[r][iter])
			}
			// Whole nodes only: for every member, all its node peers present.
			nodes := map[int]bool{}
			for m := range ranks {
				nodes[topo.NodeOf(m)] = true
			}
			for n := range nodes {
				for _, p := range topo.WorkersOf(n) {
					if !ranks[p] {
						t.Fatalf("iter %d rank %d: node %d partially summed", iter, r, n)
					}
				}
			}
			// Group size in nodes must equal the threshold (6 % 3 == 0 here).
			if len(nodes) != cfg.GroupThreshold {
				t.Fatalf("iter %d rank %d: group spans %d nodes, want %d", iter, r, len(nodes), cfg.GroupThreshold)
			}
			covered[topo.NodeOf(r)] = int(got)
			// All workers of one node see the same aggregate.
			if prev, ok := covered[topo.NodeOf(r)]; ok && prev != int(got) {
				t.Fatalf("iter %d: node %d workers disagree", iter, topo.NodeOf(r))
			}
		}
		if len(covered) != topo.Nodes {
			t.Fatalf("iter %d: only %d nodes covered", iter, len(covered))
		}
	}
}

func TestRemainderGroupFlushed(t *testing.T) {
	// 5 nodes, threshold 2 → groups of 2,2,1: the remainder must not hang.
	topo := simnet.Topology{Nodes: 5, WorkersPerNode: 1}
	cfg := Config{Topo: topo, MaxIter: 2, GroupThreshold: 2}
	agg, counts := runWLG(t, cfg, 2, func(r, iter int) []float64 {
		return rankVec(2, r)
	})
	for iter := 0; iter < cfg.MaxIter; iter++ {
		sizes := map[int]int{}
		for r := 0; r < topo.Size(); r++ {
			sizes[counts[r][iter]]++
			ranks := decodeRanks(agg[r][iter][0], topo.Size())
			if len(ranks) != counts[r][iter] {
				t.Fatalf("iter %d rank %d count mismatch", iter, r)
			}
		}
		// 4 workers in groups of 2, 1 worker in the remainder group of 1.
		if sizes[2] != 4 || sizes[1] != 1 {
			t.Fatalf("iter %d group size histogram = %v", iter, sizes)
		}
	}
}

func TestThresholdClamping(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 1}
	for _, th := range []int{-1, 0, 5} {
		cfg := Config{Topo: topo, MaxIter: 1, GroupThreshold: th}
		_, counts := runWLG(t, cfg, 1, func(r, iter int) []float64 {
			return rankVec(1, r)
		})
		for r := 0; r < topo.Size(); r++ {
			if counts[r][0] != 2 {
				t.Fatalf("threshold %d: contributors = %d, want 2 (clamped to all nodes)", th, counts[r][0])
			}
		}
	}
}

func TestLeaderHelpers(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 3}
	if GGRank(topo) != 6 || WorldSize(topo) != 7 {
		t.Fatal("GGRank/WorldSize wrong")
	}
	if LeaderOf(topo, 0) != 0 || LeaderOf(topo, 1) != 3 {
		t.Fatal("LeaderOf wrong")
	}
	if !IsLeader(topo, 0) || IsLeader(topo, 1) || !IsLeader(topo, 3) || IsLeader(topo, 5) {
		t.Fatal("IsLeader wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, MaxIter: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Topo: simnet.Topology{Nodes: 0, WorkersPerNode: 1}, MaxIter: 1},
		{Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, MaxIter: 0},
		{Topo: simnet.Topology{Nodes: 1, WorkersPerNode: 1}, MaxIter: 1, Codec: "bogus"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestLossyCodecRoundsContributions runs the same world with the exact and
// the 8-bit quantized codec: the lossy aggregate must differ from the
// exact one but stay within the quantization error bound (every worker
// sums wire-precision values, so the error per element is at most the sum
// of per-contribution quantization steps).
func TestLossyCodecRoundsContributions(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	dim := 9
	contribution := func(r, iter int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = math.Sin(float64(r*dim + j + 1)) // irrational-ish: quantization must move these
		}
		return v
	}
	exact, _ := runWLG(t, Config{Topo: topo, MaxIter: 1}, dim, contribution)
	lossy, _ := runWLG(t, Config{Topo: topo, MaxIter: 1, Codec: exchange.SparseQ8}, dim, contribution)

	var moved bool
	for j := 0; j < dim; j++ {
		diff := math.Abs(exact[0][0][j] - lossy[0][0][j])
		// Each of the 4 contributions has max-abs ≤ 1, so its quantization
		// step is at most 1/127; the summed error is bounded by 4×(1/2)/127
		// plus float slack.
		if diff > 4*0.5/127+1e-9 {
			t.Fatalf("slot %d error %v exceeds quantization bound", j, diff)
		}
		if diff != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("8-bit codec left every aggregate value untouched")
	}
}

func TestRunWorkerRejectsGGRank(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 1}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	cfg := Config{Topo: topo, MaxIter: 1}
	err := RunWorker(f.Endpoint(GGRank(topo)), cfg, WorkerFuncs{
		ComputeW: func(int) []float64 { return nil },
		ApplyW:   func(int, []float64, int) {},
	})
	if err == nil {
		t.Fatal("GG rank accepted as worker")
	}
}

func TestRunWorkerRequiresFuncs(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 1}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	cfg := Config{Topo: topo, MaxIter: 1}
	if err := RunWorker(f.Endpoint(0), cfg, WorkerFuncs{}); err == nil {
		t.Fatal("incomplete WorkerFuncs accepted")
	}
}

// TestInterleavedIterations exercises the GG's per-iteration queues: with
// threshold 1, every node is its own group and advances at its own pace,
// so requests from different iterations interleave at the GG.
func TestInterleavedIterations(t *testing.T) {
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 1}
	cfg := Config{Topo: topo, MaxIter: 10, GroupThreshold: 1}
	agg, counts := runWLG(t, cfg, 2, func(r, iter int) []float64 {
		return rankVec(2, r)
	})
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for r := 0; r < topo.Size(); r++ {
			if counts[r][iter] != 1 {
				t.Fatalf("threshold 1: contributors = %d", counts[r][iter])
			}
			if agg[r][iter][0] != math.Ldexp(1, r) {
				t.Fatalf("threshold 1: rank %d got foreign data", r)
			}
		}
	}
}

// TestWLGOverTCP smoke-tests the runtime on the TCP fabric.
func TestWLGOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh setup in -short mode")
	}
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 2, GroupThreshold: 2}
	n := WorldSize(topo)

	addrs := make([]string, n)
	for i := range addrs {
		ln, err := newLoopback()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.addr
		ln.close()
	}
	eps := make([]transport.Endpoint, n)
	var setup sync.WaitGroup
	setupErrs := make([]error, n)
	for i := 0; i < n; i++ {
		setup.Add(1)
		go func(i int) {
			defer setup.Done()
			eps[i], setupErrs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{})
		}(i)
	}
	setup.Wait()
	for i, err := range setupErrs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	dim := 4
	var mu sync.Mutex
	results := make(map[int][]float64)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunGG(eps[GGRank(topo)], cfg); err != nil {
			errCh <- err
		}
	}()
	for r := 0; r < topo.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			funcs := WorkerFuncs{
				ComputeW: func(iter int) []float64 { return rankVec(dim, r) },
				ApplyW: func(iter int, w []float64, nWorkers int) {
					if iter == cfg.MaxIter-1 {
						mu.Lock()
						results[r] = vec.Clone(w)
						mu.Unlock()
					}
				},
			}
			if err := RunWorker(eps[r], cfg, funcs); err != nil {
				errCh <- err
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := float64(int(1)<<topo.Size() - 1)
	for r, w := range results {
		if w[0] != want {
			t.Fatalf("TCP rank %d aggregate %v, want %v", r, w[0], want)
		}
	}
}

var _ = collective.Group{} // keep import for helper reuse below
