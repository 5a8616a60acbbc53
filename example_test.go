package psrahgadmm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	psra "psrahgadmm"
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

// Quickstart: train L1-regularized logistic regression with PSRA-HGADMM on
// a synthetic news20-like dataset and print the convergence history.
func Example_quickstart() {
	// A small news20-shaped dataset: ~680 features, 64 train / 16 test rows.
	train, test, err := psra.Generate(psra.News20Like(0.0005, 42))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("training on %d samples × %d features (%d nonzeros)\n",
		train.Rows(), train.Dim(), train.NNZ())

	cfg := psra.Config{
		Algorithm: psra.PSRAHGADMM,
		Topo:      psra.Topology{Nodes: 4, WorkersPerNode: 2}, // 8 workers
		Rho:       1,
		Lambda:    1,
		MaxIter:   40,
	}
	res, err := psra.Train(cfg, train, psra.RunOptions{Test: test})
	if err != nil {
		fmt.Println(err)
		return
	}

	for _, h := range res.History {
		if h.Iter%5 == 0 || h.Iter == cfg.MaxIter-1 {
			fmt.Printf("iter %2d  objective %8.4f  accuracy %.3f\n",
				h.Iter+1, h.Objective, h.Accuracy)
		}
	}
	fmt.Printf("\nvirtual system time %.3gs = compute %.3gs + communication %.3gs\n",
		res.SystemTime, res.TotalCalTime, res.TotalCommTime)
	fmt.Printf("%d bytes exchanged over %d iterations\n", res.TotalBytes, cfg.MaxIter)

	// Output:
	// training on 64 samples × 677 features (805 nonzeros)
	// iter  1  objective  28.0480  accuracy 1.000
	// iter  6  objective  19.4303  accuracy 1.000
	// iter 11  objective  18.6652  accuracy 0.938
	// iter 16  objective  18.4589  accuracy 0.938
	// iter 21  objective  18.4117  accuracy 0.938
	// iter 26  objective  18.3937  accuracy 0.938
	// iter 31  objective  18.3837  accuracy 0.938
	// iter 36  objective  18.3790  accuracy 0.938
	// iter 40  objective  18.3769  accuracy 0.938
	//
	// virtual system time 0.00199s = compute 0.000131s + communication 0.00186s
	// 590576 bytes exchanged over 40 iterations
}

// Stragglers: the Figure 7 effect in miniature. The same PSRA-HGADMM
// training runs twice under injected slow nodes — once with the dynamic
// grouping strategy (small arrival-ordered Leader groups, group-local
// consensus: fast groups never wait), once ungrouped (one global group,
// every iteration gated by the slowest node) — and the virtual timelines
// are compared.
func Example_stragglers() {
	train, _, err := psra.Generate(psra.News20Like(0.001, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	run := func(threshold int) (*psra.Result, error) {
		return psra.Train(psra.Config{
			Algorithm:      psra.PSRAHGADMMGroup,
			Topo:           psra.Topology{Nodes: 16, WorkersPerNode: 2},
			Rho:            1,
			Lambda:         1,
			MaxIter:        40,
			GroupThreshold: threshold,
			// Each iteration every node has a 5% chance of stalling for a
			// fixed 5ms (virtual) — the §5.5 injection.
			Stragglers: psra.Stragglers{Seed: 99, Prob: 0.05, Delay: 5e-3},
		}, train, psra.RunOptions{})
	}
	grouped, err := run(4) // groups of 4 nodes
	if err != nil {
		fmt.Println(err)
		return
	}
	ungrouped, err := run(16) // one global group
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("PSRA-HGADMM, 16 nodes × 2 workers, 40 iterations, 5% × 5ms stragglers")
	fmt.Printf("%-18s %-14s %-14s %s\n", "strategy", "compute", "comm (wait+tx)", "system time")
	for _, row := range []struct {
		name string
		r    *psra.Result
	}{{"dynamic grouping", grouped}, {"ungrouped", ungrouped}} {
		fmt.Printf("%-18s %-14s %-14s %s\n", row.name,
			fmt.Sprintf("%.2fms", row.r.TotalCalTime*1e3),
			fmt.Sprintf("%.2fms", row.r.TotalCommTime*1e3),
			fmt.Sprintf("%.2fms", row.r.SystemTime*1e3))
	}
	saving := 100 * (ungrouped.SystemTime - grouped.SystemTime) / ungrouped.SystemTime
	fmt.Printf("\ndynamic grouping saves %.1f%% system time: slow nodes only stall their own group,\n", saving)
	fmt.Println("while the ungrouped run re-synchronizes the whole cluster behind every straggler.")
	fmt.Printf("final objectives: grouped %.4f, ungrouped %.4f (group-local consensus trades\n",
		grouped.FinalObjective(), ungrouped.FinalObjective())
	fmt.Println("some per-iteration consensus breadth for straggler isolation; see DESIGN.md).")

	// Output:
	// PSRA-HGADMM, 16 nodes × 2 workers, 40 iterations, 5% × 5ms stragglers
	// strategy           compute        comm (wait+tx) system time
	// dynamic grouping   8.79ms         24.27ms        33.05ms
	// ungrouped          8.79ms         88.28ms        97.06ms
	//
	// dynamic grouping saves 65.9% system time: slow nodes only stall their own group,
	// while the ungrouped run re-synchronizes the whole cluster behind every straggler.
	// final objectives: grouped 33.9287, ungrouped 24.6225 (group-local consensus trades
	// some per-iteration consensus breadth for straggler isolation; see DESIGN.md).
}

// Allreduce: Ring-Allreduce vs the paper's PSR-Allreduce on sparse
// vectors, run for real over the in-process fabric, with virtual cluster
// timings from the α/β cost model. Demonstrates §4.2's claim (eqs. 11–16):
// the two models tie when nonzeros spread evenly, but when they
// concentrate in one block, the ring's circulating partial sums blow up
// while PSR's direct-to-owner schedule stays bounded.
func Example_allreduce() {
	const workers = 8
	cost := simnet.Tianhe2Like()
	topo := simnet.Topology{Nodes: workers, WorkersPerNode: 1}

	for _, concentrated := range []bool{false, true} {
		label := "uniform nonzeros"
		if concentrated {
			label = "all nonzeros in block 0 (ring's worst case)"
		}
		inputs := allreduceInputs(workers, concentrated)

		ringOut, ringTrace, err := allreduce(true, inputs)
		if err != nil {
			fmt.Println(err)
			return
		}
		psrOut, psrTrace, err := allreduce(false, inputs)
		if err != nil {
			fmt.Println(err)
			return
		}

		// Both must compute the identical sum.
		if !vec.WithinTol(ringOut.ToDense(), psrOut.ToDense(), 1e-9) {
			fmt.Println("ring and PSR disagree on the sum")
			return
		}
		ringT := cost.TraceTime(topo, ringTrace...)
		psrT := cost.TraceTime(topo, psrTrace...)
		fmt.Printf("%s:\n", label)
		fmt.Printf("  ring allreduce: %8.1fµs  (%7d payload bytes)\n", ringT*1e6, traceBytes(ringTrace))
		fmt.Printf("  psr  allreduce: %8.1fµs  (%7d payload bytes)\n", psrT*1e6, traceBytes(psrTrace))
		fmt.Printf("  ring/psr time ratio: %.2f\n\n", ringT/psrT)
	}

	// Output:
	// uniform nonzeros:
	//   ring allreduce:    430.5µs  (3943748 payload bytes)
	//   psr  allreduce:    340.7µs  (2954216 payload bytes)
	//   ring/psr time ratio: 1.26
	//
	// all nonzeros in block 0 (ring's worst case):
	//   ring allreduce:   2133.9µs  (2890292 payload bytes)
	//   psr  allreduce:   1607.5µs  (2153228 payload bytes)
	//   ring/psr time ratio: 1.33
}

// allreduceInputs draws each worker's 4096 nonzeros over a 2¹⁸-wide
// vector: anywhere, or all inside the first of the workers' blocks.
func allreduceInputs(workers int, concentrated bool) []*sparse.Vector {
	const dim, nnz = 1 << 18, 4096
	r := rand.New(rand.NewSource(5))
	first := vec.Split(dim, workers)[0]
	out := make([]*sparse.Vector, workers)
	for m := range out {
		pos := map[int32]float64{}
		for len(pos) < nnz {
			var idx int
			if concentrated {
				idx = first.Lo + r.Intn(first.Hi-first.Lo)
			} else {
				idx = r.Intn(dim)
			}
			pos[int32(idx)] = r.NormFloat64()
		}
		out[m] = sparse.FromMap(dim, pos)
	}
	return out
}

// allreduce runs the ring or the PSR collective for real, one goroutine
// per member over a channel fabric, and returns member 0's sum and every
// member's trace.
func allreduce(ring bool, inputs []*sparse.Vector) (*sparse.Vector, []collective.Trace, error) {
	n := len(inputs)
	fab := transport.NewChanFabric(n)
	defer fab.Close()
	g := collective.WorldGroup(n)
	results := make([]*sparse.Vector, n)
	traces := make([]collective.Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One workspace per member; a long-lived caller keeps it
			// across rounds so steady-state calls allocate nothing.
			var ws collective.Workspace
			results[i] = new(sparse.Vector)
			if ring {
				traces[i], errs[i] = ws.RingAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], results[i])
			} else {
				traces[i], errs[i] = ws.PSRAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], results[i])
			}
		}()
	}
	wg.Wait()
	return results[0], traces, errors.Join(errs...)
}

func traceBytes(traces []collective.Trace) int {
	n := 0
	for _, t := range traces {
		n += t.TotalBytes()
	}
	return n
}

// TCP cluster: a complete PSRA-HGADMM training run over a genuine TCP
// mesh on localhost — every rank owns real sockets and exchanges real
// frames; only the process boundary is collapsed (each rank is a
// goroutine, so the example is self-contained and needs no orchestration).
// Each worker is a core.Rank, the engine's per-rank worker, driven by the
// WLG runtime. For true multi-process runs, use cmd/psra-worker, which runs
// the same code path.
func Example_tcpcluster() {
	const maxIter = 20
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	world := wlg.WorldSize(topo)

	train, test, err := psra.Generate(psra.News20Like(0.0005, 11))
	if err != nil {
		fmt.Println(err)
		return
	}
	shards := train.Shard(topo.Size())
	ranks := make([]*core.Rank, topo.Size())
	for r := range ranks {
		ranks[r] = core.NewRank(core.Config{Topo: topo, Rho: 1, Lambda: 1}, r, shards[r])
	}

	eps, err := loopbackMesh(world)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	fmt.Printf("mesh of %d ranks (4 workers + 1 group generator) on loopback TCP\n", world)

	// Every rank plays its part concurrently: the Group Generator, or a
	// worker driving its core.Rank.
	cfg := wlg.Config{Topo: topo, MaxIter: maxIter, GroupThreshold: 0}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == wlg.GGRank(topo) {
				errs[i] = wlg.RunGG(ep, cfg)
			} else {
				errs[i] = wlg.RunWorker(ep, cfg, wlg.WorkerFuncs{ComputeW: ranks[i].ComputeW, ApplyW: ranks[i].ApplyW})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fmt.Println(err)
		return
	}

	z := ranks[0].Z()
	fmt.Printf("consensus reached after %d iterations over TCP: ‖z‖₀ = %d\n",
		maxIter, vec.CountNonzero(z))
	fmt.Printf("test accuracy of the consensus model: %.3f\n", test.Accuracy(z))
	var sent int64
	for _, ep := range eps {
		sent += ep.Stats().BytesSent
	}
	fmt.Printf("real bytes pushed through the sockets: %d\n", sent)
	for r, rk := range ranks[1:] {
		if !vec.WithinTol(rk.Z(), z, 1e-9) {
			fmt.Printf("rank %d disagrees with rank 0\n", r+1)
			return
		}
	}
	fmt.Printf("all %d workers agree on z\n", len(ranks))

	// Output:
	// mesh of 5 ranks (4 workers + 1 group generator) on loopback TCP
	// consensus reached after 20 iterations over TCP: ‖z‖₀ = 13
	// test accuracy of the consensus model: 0.625
	// real bytes pushed through the sockets: 202100
	// all 4 workers agree on z
}

// loopbackMesh reserves one loopback port per rank (listen on :0, note the
// address, close) so every endpoint knows the full mesh before any rank
// starts, and brings the n endpoints up concurrently. Another socket can
// take a reserved port before its rank listens; the attempt then fails
// within the dial budget, closing what it opened, and is retried on fresh
// ports.
func loopbackMesh(n int) ([]transport.Endpoint, error) {
	var err error
	for try := 0; try < 5; try++ {
		addrs := make([]string, n)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return nil, lerr
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		eps := make([]transport.Endpoint, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eps[i], errs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{DialTimeout: 5 * time.Second})
			}()
		}
		wg.Wait()
		if err = errors.Join(errs...); err == nil {
			return eps, nil
		}
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	return nil, fmt.Errorf("mesh establishment: %w", err)
}

// Extensions: the classic ADMM add-ons this library layers on the paper's
// algorithm — residual-based early stopping, residual-balancing adaptive ρ
// (the AADMM idea), and Q-GADMM-style quantized communication — plus the
// algorithm registry: every variant is a named (consensus, sync, codec)
// triple, enumerable and runnable through the public API.
func Example_extensions() {
	train, _, err := psra.Generate(psra.News20Like(0.001, 13))
	if err != nil {
		fmt.Println(err)
		return
	}
	base := psra.Config{
		Algorithm: psra.PSRAHGADMM,
		Topo:      psra.Topology{Nodes: 4, WorkersPerNode: 2},
		Rho:       1, Lambda: 1, MaxIter: 120,
	}

	// 1. Early stopping: residual tolerance ends the run when consensus
	// has effectively converged, instead of burning the full budget.
	cfg := base
	cfg.Tol = 5e-3
	res, err := psra.Train(cfg, train, psra.RunOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	last := res.History[len(res.History)-1]
	fmt.Printf("early stopping at Tol=%.0e: %d of %d iterations (primal %.2e, dual %.2e)\n",
		cfg.Tol, len(res.History), cfg.MaxIter, last.PrimalRes, last.DualRes)

	// 2. Adaptive ρ: start from a deliberately terrible penalty and let
	// residual balancing fix it.
	for _, adaptive := range []bool{false, true} {
		cfg := base
		cfg.MaxIter = 40
		cfg.Rho = 0.005
		cfg.AdaptiveRho = adaptive
		res, err := psra.Train(cfg, train, psra.RunOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		mode := "fixed   "
		if adaptive {
			mode = "adaptive"
		}
		fmt.Printf("ρ₀=0.005 %s: objective %9.4f, final ρ %.3f\n",
			mode, res.FinalObjective(), res.History[len(res.History)-1].Rho)
	}

	// 3. Quantized exchange: value bits vs bytes moved.
	// Config.Codec swaps the variant's exchange codec for the run; empty
	// keeps the registered one (exact sparse for psra-hgadmm).
	for _, q := range []struct {
		label string
		codec psra.ExchangeKind
	}{{"64-bit", ""}, {"16-bit", "sparse-q16"}, {" 8-bit", "sparse-q8"}} {
		cfg := base
		cfg.MaxIter = 40
		cfg.Codec = q.codec
		res, err := psra.Train(cfg, train, psra.RunOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s values: objective %9.4f, %8d bytes communicated\n",
			q.label, res.FinalObjective(), res.TotalBytes)
	}

	// 4. The registry: every runnable variant is a (consensus, sync, codec)
	// binding — including compositions the paper's monoliths could not
	// express, like the quantized staged tree under SSP. Each runs through
	// the same Train call by name.
	fmt.Println("\nregistered algorithm variants:")
	for _, v := range psra.Variants() {
		cfg := base
		cfg.Algorithm = v.Name
		cfg.MaxIter = 15
		res, err := psra.Train(cfg, train, psra.RunOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("  %-20s (%s × %s × %s): objective %9.4f\n",
			v.Name, v.Consensus, v.Sync, v.Codec, res.FinalObjective())
	}

	// Output:
	// early stopping at Tol=5e-03: 45 of 120 iterations (primal 2.70e-03, dual 4.85e-03)
	// ρ₀=0.005 fixed   : objective   31.4514, final ρ 0.005
	// ρ₀=0.005 adaptive: objective   23.2514, final ρ 0.320
	// 64-bit values: objective   23.2489,   675632 bytes communicated
	// 16-bit values: objective   23.2489,   354136 bytes communicated
	//  8-bit values: objective   23.2504,   281521 bytes communicated
	//
	// registered algorithm variants:
	//   psra-hgadmm          (tree × bsp × sparse): objective   23.2980
	//   psra-admm            (flat-psr × bsp × sparse): objective   23.2980
	//   gr-admm              (ring × bsp × sparse): objective   23.2980
	//   admmlib              (ring × ssp × dense-f32): objective   24.2705
	//   ad-admm              (star × ssp × dense): objective   24.2642
	//   gc-admm              (star × bsp × dense): objective   23.2980
	//   psra-hgadmm-group    (group-local × bsp × sparse): objective   23.2980
	//   psra-hgadmm-ssp-q8   (tree × ssp × sparse-q8): objective   24.2660
	//   psra-admm-async      (flat-psr × async × sparse): objective   30.0011
	//   gr-admm-ssp          (ring × ssp × sparse): objective   24.2705
	//   psra-hgadmm-topk     (tree × bsp × topk): objective   23.2980
	//   psra-hgadmm-topk-q8  (tree × bsp × topk-q8): objective   23.2994
	//   psra-admm-topk       (flat-psr × bsp × topk): objective   23.2980
	//   psra-hgadmm-sharded  (tree × bsp × sparse): objective   23.2980
	//   psra-hgadmm-sharded-ssp (tree × ssp × sparse): objective   24.2705
	//   psra-hgadmm-sharded-async (tree × async × sparse): objective   27.6409
	//   psra-admm-robust     (flat-psr × bsp × sparse): objective   24.3008
	//   psra-hgadmm-robust   (tree × bsp × sparse): objective   24.3881
	//   gc-admm-median       (star × bsp × dense): objective   25.7428
	//   psra-admm-sharded-robust (flat-psr × bsp × sparse): objective   24.3008
}
