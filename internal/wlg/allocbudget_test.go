package wlg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
)

// runWorldMallocs runs a complete WLG world (workers + GG) on a chan
// fabric with allocation-free callbacks and returns the heap objects the
// whole world allocated.
func runWorldMallocs(t *testing.T, cfg Config, contrib [][]float64) int64 {
	t.Helper()
	topo := cfg.Topo
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	f := transport.NewChanFabric(WorldSize(topo))
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
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			funcs := WorkerFuncs{
				ComputeW: func(iter int) []float64 { return contrib[r] },
				ApplyW:   func(iter int, w []float64, n int) {},
			}
			if err := RunWorker(f.Endpoint(r), cfg, funcs); err != nil {
				errCh <- fmt.Errorf("worker %d: %w", r, err)
			}
		}()
	}
	wg.Wait()
	f.Close()
	runtime.ReadMemStats(&after)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return int64(after.Mallocs - before.Mallocs)
}

// TestWLGSteadyStateAllocBudget bounds the per-iteration allocation rate
// of a warmed 2-group WLG world (4 nodes × 2 workers, threshold 2) on the
// in-process fabric. The runtime itself — contribution buffers, collective
// workspaces, group/control scratch — allocates nothing once warm (see
// DESIGN.md "Memory model & buffer ownership"); what remains is the chan
// fabric's per-message defensive copies and the GG's per-iteration queue
// bookkeeping, which together bound the budget. Measured marginally (two
// world runs differing only in MaxIter) so setup costs cancel.
func TestWLGSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 2}
	const dim = 256
	contrib := make([][]float64, topo.Size())
	for r := range contrib {
		contrib[r] = make([]float64, dim)
		for j := range contrib[r] {
			contrib[r][j] = float64(r + j)
		}
	}
	base := Config{Topo: topo, GroupThreshold: 2}

	const n1, n2 = 20, 120
	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		c1, c2 := base, base
		c1.MaxIter, c2.MaxIter = n1, n2
		m1 := runWorldMallocs(t, c1, contrib)
		m2 := runWorldMallocs(t, c2, contrib)
		if perIter := float64(m2-m1) / float64(n2-n1); perIter < best {
			best = perIter
		}
	}
	// The budget is for the WHOLE 9-endpoint world per iteration: ~26
	// fabric messages (intra reduce/broadcast, GG round trips, inter
	// allreduce) at 2–3 objects each plus GG map traffic. Headroom is
	// deliberate slack for runtime noise, not license for runtime-side
	// allocation — the runtime's own loop must stay at zero.
	const budget = 64.0
	t.Logf("wlg world allocations: %.1f objects/iter (budget %g)", best, budget)
	if best > budget {
		t.Fatalf("wlg world allocations: %.1f objects/iter exceeds budget %g", best, budget)
	}
}

// meshFabric presents a TCP mesh's endpoints as a transport.Fabric, so Run
// drives the world and tears it down on the first failure.
type meshFabric []transport.Endpoint

func (f meshFabric) Size() int                         { return len(f) }
func (f meshFabric) Endpoint(i int) transport.Endpoint { return f[i] }
func (f meshFabric) Close() {
	for _, ep := range f {
		ep.Close()
	}
}

// runTCPWorldBytes runs a plain WLG world over a fresh loopback mesh with
// allocation-free callbacks and returns the heap bytes the process
// allocated while it ran and the frame bytes its endpoints sent. The mesh
// is set up before and closed after the measured window.
func runTCPWorldBytes(t *testing.T, cfg Config, contrib [][]float64) (heap, frames int64) {
	t.Helper()
	fab := meshFabric(tcpMesh(t, WorldSize(cfg.Topo)))
	defer fab.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := RunWithInfo(fab, cfg, func(r int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 { return contrib[r] },
			ApplyW:   func(iter int, w []float64, n int) {},
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range fab {
		frames += ep.Stats().BytesSent
	}
	return int64(after.TotalAlloc - before.TotalAlloc), frames
}

// TestWLGTCPSteadyStateAllocBudget bounds what a warmed WLG world allocates
// over loopback TCP, in bytes against the bytes it puts on the wire. The
// contributions have the mesh benchmark's shape (4 nodes × 2 workers, 27k
// coordinates, ≈ 18k nonzeros each). Every sparse frame a connection reader
// decodes lands in a pooled vector that the collective releases once it has
// copied out of it, so the received payloads — one fresh vector per frame,
// as many bytes as the frames carry — are no longer allocated; what remains
// is control frames, async-send goroutines and the GG's bookkeeping.
// Measured marginally, like TestWLGSteadyStateAllocBudget.
func TestWLGTCPSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if testing.Short() {
		t.Skip("TCP mesh setup in -short mode")
	}
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 2}
	const dim, nnz = 27103, 18000
	r := rand.New(rand.NewSource(33))
	contrib := make([][]float64, topo.Size())
	for w := range contrib {
		contrib[w] = make([]float64, dim)
		for _, j := range r.Perm(dim)[:nnz] {
			contrib[w][j] = r.NormFloat64()
		}
	}
	base := Config{Topo: topo}

	const n1, n2 = 10, 100
	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		c1, c2 := base, base
		c1.MaxIter, c2.MaxIter = n1, n2
		h1, f1 := runTCPWorldBytes(t, c1, contrib)
		h2, f2 := runTCPWorldBytes(t, c2, contrib)
		if share := float64(h2-h1) / float64(f2-f1); share < best {
			best = share
		}
	}
	const budget = 0.05
	t.Logf("wlg TCP world: marginal heap bytes are %.2f %% of frame bytes (budget %g %%)", 100*best, 100*budget)
	if best > budget {
		t.Fatalf("wlg TCP world: marginal heap bytes are %.2f %% of frame bytes, over the %g %% budget", 100*best, 100*budget)
	}
}
