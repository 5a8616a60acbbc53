package wlg

import (
	"testing"

	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// TestTopKPlainRuntimeExactWhenKCoversSupport drives the sparse top-k
// transport end to end — intra-node sparse reduce, GG grouping, sparse
// PSR-Allreduce among Leaders, sparse broadcast — on contributions small
// enough that selection never truncates (nnz < KMin), so every aggregate
// must match the exact consensus bit-for-bit.
func TestTopKPlainRuntimeExactWhenKCoversSupport(t *testing.T) {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 3, GroupThreshold: 0, Codec: exchange.TopK}
	dim := 7 // nnz 7 < DefaultKMin: selection is the identity
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

// TestTopKPlainRuntimeSelectsTopCoordinates pins the truncation itself:
// with dim 64 every rank's default k is 32, so a single round over a
// magnitude ramp must aggregate exactly the top half of the coordinates
// and drop the rest on the wire.
func TestTopKPlainRuntimeSelectsTopCoordinates(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 1, GroupThreshold: 0, Codec: exchange.TopK}
	const dim = 64
	agg, _ := runWLG(t, cfg, dim, func(r, iter int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(j + 1) // magnitude ramp, identical on every rank
		}
		return v
	})
	n := float64(topo.Size())
	for r := 0; r < topo.Size(); r++ {
		for j, got := range agg[r][0] {
			want := 0.0
			if j >= dim/2 { // top 32 magnitudes are indices 32..63
				want = n * float64(j+1)
			}
			if got != want {
				t.Fatalf("rank %d slot %d = %v, want %v", r, j, got, want)
			}
		}
	}
}

// TestTopKElasticFewerBytesThanSparse pins that the elastic data plane
// rides the same sparse frames and the same per-rank error-feedback state
// as the fail-stop one: on identical contributions (dim 64, so k = 32
// truncates, steered further down by a byte budget) an elastic topk world
// puts strictly fewer bytes on the wire than an elastic sparse world, and
// every rank applies exactly the aggregates the fail-stop topk world does.
// Contributions are integer-valued so the two modes' different summation
// trees (PSR chunks vs the GG's node sums) cannot differ by rounding.
func TestTopKElasticFewerBytesThanSparse(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	const dim, iters = 64, 4
	contrib := func(r, iter int, _ []float64) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((j+3*r+iter)%dim - dim/3)
		}
		return v
	}
	run := func(codec exchange.Kind, elastic bool) ([][][]float64, int64) {
		cfg := Config{Topo: topo, MaxIter: iters, Codec: codec, CodecBudgetBytes: 200, Elastic: elastic}
		fab := transport.NewChanFabric(WorldSize(topo))
		defer fab.Close()
		agg := runWorld(t, fab, cfg, contrib)
		var sent int64
		for r := 0; r < fab.Size(); r++ {
			sent += fab.Endpoint(r).Stats().BytesSent
		}
		return agg, sent
	}
	_, sparseBytes := run(exchange.Sparse, true)
	elasticAgg, topkBytes := run(exchange.TopK, true)
	plainAgg, _ := run(exchange.TopK, false)
	if topkBytes >= sparseBytes {
		t.Fatalf("elastic topk sent %d bytes, elastic sparse %d: selection must shrink the frames", topkBytes, sparseBytes)
	}
	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < iters; iter++ {
			if !vec.Equal(elasticAgg[r][iter], plainAgg[r][iter]) {
				t.Fatalf("rank %d iter %d: elastic topk aggregate differs from the fail-stop one", r, iter)
			}
		}
	}
}
