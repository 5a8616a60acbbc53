package collective

import (
	"math/rand"
	"sync"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
)

func benchSparseVec(r *rand.Rand, dim int, density float64) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, r.NormFloat64())
		}
	}
	return v
}

// BenchmarkPSRAllreduceSparse drives the paper's sparse allreduce — the
// engine's per-round reduce — across a 4-member chan-fabric world with
// persistent per-member workspaces, the exact setup the core crew keeps
// warm. allocs/op is the whole world's per-round allocation.
func BenchmarkPSRAllreduceSparse(b *testing.B) {
	benchAllreduceSparse(b, transport.NewChanFabric(4), func(ws *Workspace, ep transport.Endpoint, g Group, in, out *sparse.Vector) error {
		_, err := ws.PSRAllreduceSparse(ep, g, 64, in, out)
		return err
	})
}

// BenchmarkPSRAllreduceSparse64 is the same round among 64 members on the
// zero-copy fabric, the world of engine-wide-64: 8 064 messages of a few
// hundred bytes, so the fabric and the per-message bookkeeping are the
// cost, not the reduce (and, on the copying fabric, not 24 000 clones).
func BenchmarkPSRAllreduceSparse64(b *testing.B) {
	benchAllreduceSparse(b, transport.NewChanFabricZeroCopy(64), func(ws *Workspace, ep transport.Endpoint, g Group, in, out *sparse.Vector) error {
		_, err := ws.PSRAllreduceSparse(ep, g, 64, in, out)
		return err
	})
}

// BenchmarkRingAllreduceSparse is the GR-ADMM ring schedule at the same
// size, for direct comparison.
func BenchmarkRingAllreduceSparse(b *testing.B) {
	benchAllreduceSparse(b, transport.NewChanFabric(4), func(ws *Workspace, ep transport.Endpoint, g Group, in, out *sparse.Vector) error {
		_, err := ws.RingAllreduceSparse(ep, g, 64, in, out)
		return err
	})
}

func benchAllreduceSparse(b *testing.B, fab *transport.ChanFabric, call func(ws *Workspace, ep transport.Endpoint, g Group, in, out *sparse.Vector) error) {
	defer fab.Close()
	n := fab.Size()
	g := WorldGroup(n)
	r := rand.New(rand.NewSource(21))
	wss := make([]Workspace, n)
	ins := make([]*sparse.Vector, n)
	outs := make([]*sparse.Vector, n)
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		ins[i] = benchSparseVec(r, 1<<14, 0.05)
		outs[i] = new(sparse.Vector)
		eps[i] = fab.Endpoint(i)
	}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(n)
		for m := 0; m < n; m++ {
			go func(m int) {
				defer wg.Done()
				if err := call(&wss[m], eps[m], g, ins[m], outs[m]); err != nil {
					b.Error(err)
				}
			}(m)
		}
		wg.Wait()
	}
}
