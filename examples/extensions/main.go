// Extensions: the classic ADMM add-ons this library layers on the paper's
// algorithm — residual-based early stopping, residual-balancing adaptive ρ
// (the AADMM idea), and Q-GADMM-style quantized communication — plus the
// algorithm registry: every variant is a named (consensus, sync, codec)
// triple, enumerable and runnable through the public API.
//
//	go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	psra "psrahgadmm"
)

func main() {
	train, _, err := psra.Generate(psra.News20Like(0.001, 13))
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	fmt.Printf("early stopping at Tol=%.0e: %d of %d iterations (primal %.2e, dual %.2e)\n",
		cfg.Tol, len(res.History), cfg.MaxIter,
		res.History[len(res.History)-1].PrimalRes,
		res.History[len(res.History)-1].DualRes)

	// 2. Adaptive ρ: start from a deliberately terrible penalty and let
	// residual balancing fix it.
	for _, adaptive := range []bool{false, true} {
		cfg := base
		cfg.MaxIter = 40
		cfg.Rho = 0.005
		cfg.AdaptiveRho = adaptive
		res, err := psra.Train(cfg, train, psra.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		mode := "fixed   "
		if adaptive {
			mode = "adaptive"
		}
		last := res.History[len(res.History)-1]
		fmt.Printf("ρ₀=0.005 %s: objective %9.4f, final ρ %.3f\n",
			mode, res.FinalObjective(), last.Rho)
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
			log.Fatal(err)
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
			log.Fatal(err)
		}
		fmt.Printf("  %-20s (%s × %s × %s): objective %9.4f\n",
			v.Name, v.Consensus, v.Sync, v.Codec, res.FinalObjective())
	}
}
