// Allreduce: Ring-Allreduce vs the paper's PSR-Allreduce on sparse
// vectors, run for real over the in-process fabric, with virtual cluster
// timings from the α/β cost model. Demonstrates §4.2's claim (eqs. 11–16):
// the two models tie when nonzeros spread evenly, but when they
// concentrate in one block, the ring's circulating partial sums blow up
// while PSR's direct-to-owner schedule stays bounded.
//
//	go run ./examples/allreduce
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

const (
	workers = 8
	dim     = 1 << 18
	nnz     = 4096 // nonzeros per worker
)

func main() {
	cost := simnet.Tianhe2Like()
	topo := simnet.Topology{Nodes: workers, WorkersPerNode: 1}

	for _, concentrated := range []bool{false, true} {
		label := "uniform nonzeros"
		if concentrated {
			label = "all nonzeros in block 0 (ring's worst case)"
		}
		inputs := build(concentrated)

		ringOut, ringTrace := run(true, inputs)
		psrOut, psrTrace := run(false, inputs)

		// Both must compute the identical sum.
		if !vec.WithinTol(ringOut.ToDense(), psrOut.ToDense(), 1e-9) {
			log.Fatal("ring and PSR disagree on the sum")
		}
		ringT := cost.TraceTime(topo, ringTrace...)
		psrT := cost.TraceTime(topo, psrTrace...)
		fmt.Printf("%s:\n", label)
		fmt.Printf("  ring allreduce: %8.1fµs  (%7d payload bytes)\n", ringT*1e6, totalBytes(ringTrace))
		fmt.Printf("  psr  allreduce: %8.1fµs  (%7d payload bytes)\n", psrT*1e6, totalBytes(psrTrace))
		fmt.Printf("  ring/psr time ratio: %.2f\n\n", ringT/psrT)
	}
}

// build creates the 8 workers' sparse inputs.
func build(concentrated bool) []*sparse.Vector {
	r := rand.New(rand.NewSource(5))
	chunks := vec.Split(dim, workers)
	out := make([]*sparse.Vector, workers)
	for m := range out {
		pos := map[int32]float64{}
		for len(pos) < nnz {
			var idx int
			if concentrated {
				idx = chunks[0].Lo + r.Intn(chunks[0].Hi-chunks[0].Lo)
			} else {
				idx = r.Intn(dim)
			}
			pos[int32(idx)] = r.NormFloat64()
		}
		out[m] = sparse.FromMap(dim, pos)
	}
	return out
}

// run executes the collective for real: one goroutine per member over a
// channel fabric.
func run(ring bool, inputs []*sparse.Vector) (*sparse.Vector, []collective.Trace) {
	fab := transport.NewChanFabric(workers)
	defer fab.Close()
	g := collective.WorldGroup(workers)
	results := make([]*sparse.Vector, workers)
	traces := make([]collective.Trace, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One workspace per member; a long-lived caller keeps it
			// across rounds so steady-state calls allocate nothing.
			var ws collective.Workspace
			results[i] = new(sparse.Vector)
			var err error
			if ring {
				traces[i], err = ws.RingAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], results[i])
			} else {
				traces[i], err = ws.PSRAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], results[i])
			}
			if err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	return results[0], traces
}

func totalBytes(traces []collective.Trace) int {
	n := 0
	for _, t := range traces {
		n += t.TotalBytes()
	}
	return n
}
