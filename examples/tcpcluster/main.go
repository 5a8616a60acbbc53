// TCP cluster: a complete PSRA-HGADMM training run over a genuine TCP
// mesh on localhost — every rank owns real sockets and exchanges real
// frames; only the process boundary is collapsed (each rank is a
// goroutine, so the example is self-contained and needs no orchestration).
// Each worker is a core.Rank, the engine's per-rank worker, driven by the
// WLG runtime. For true multi-process runs, use cmd/psra-worker, which runs
// the same code path.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	psra "psrahgadmm"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

const (
	rho     = 1.0
	lambda  = 1.0
	maxIter = 20
)

func main() {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	world := wlg.WorldSize(topo)

	// Reserve one loopback port per rank so every endpoint knows the full
	// mesh before any rank starts.
	addrs := make([]string, world)
	listeners := make([]net.Listener, world)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	fmt.Printf("mesh of %d ranks (4 workers + 1 group generator) on %v\n", world, addrs)

	train, test, err := psra.Generate(psra.News20Like(0.0005, 11))
	if err != nil {
		log.Fatal(err)
	}
	shards := train.Shard(topo.Size())
	ranks := make([]*core.Rank, topo.Size())
	for r := range ranks {
		ranks[r] = core.NewRank(core.Config{Topo: topo, Rho: rho, Lambda: lambda}, r, shards[r])
	}

	// Every rank joins the mesh concurrently, then plays its part: the
	// Group Generator, or a worker driving its core.Rank.
	cfg := wlg.Config{Topo: topo, MaxIter: maxIter, GroupThreshold: 0}
	eps := make([]transport.Endpoint, world)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{})
			if err == nil {
				eps[i] = ep
				if i == wlg.GGRank(topo) {
					err = wlg.RunGG(ep, cfg)
				} else {
					err = wlg.RunWorker(ep, cfg, wlg.WorkerFuncs{ComputeW: ranks[i].ComputeW, ApplyW: ranks[i].ApplyW})
				}
			}
			if err != nil {
				log.Fatalf("rank %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	z := ranks[0].Z()
	for r, rk := range ranks[1:] {
		if !vec.WithinTol(rk.Z(), z, 1e-9) {
			log.Fatalf("rank %d disagrees with rank 0 after %d iterations", r+1, maxIter)
		}
	}
	fmt.Printf("consensus reached after %d iterations over TCP: ‖z‖₀ = %d\n",
		maxIter, vec.CountNonzero(z))
	fmt.Printf("test accuracy of the consensus model: %.3f\n", test.Accuracy(z))
	var sent int64
	for _, ep := range eps {
		sent += ep.Stats().BytesSent
	}
	fmt.Printf("real bytes pushed through the sockets: %d\n", sent)
}
