// Command psra-bench regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index):
//
//	psra-bench -experiment all            # full suite (several minutes)
//	psra-bench -experiment fig5           # convergence curves
//	psra-bench -experiment fig6 -csv      # system-time sweep as CSV
//	psra-bench -experiment fig7 -iters 40 # straggler study, shorter runs
//	psra-bench -list                      # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"psrahgadmm/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		iters      = flag.Int("iters", 0, "outer iterations per run (default 100, 12 with -quick)")
		seed       = flag.Int64("seed", 1, "dataset and injection seed")
		quick      = flag.Bool("quick", false, "shrunken sweeps for a fast smoke run")
		csv        = flag.Bool("csv", false, "emit tables as CSV")
		rho        = flag.Float64("rho", 1, "ADMM penalty parameter ρ")
		lambda     = flag.Float64("lambda", 1, "L1 regularization weight λ (paper: 1)")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	// bench.Options replaces a non-positive value with its default, so a bad
	// flag is refused here rather than silently run as something else.
	switch {
	case *iters < 0:
		fail(fmt.Errorf("-iters %d: must be >= 0 (0 picks the default)", *iters))
	case !(*rho > 0):
		fail(fmt.Errorf("-rho %v: must be > 0", *rho))
	case !(*lambda > 0):
		fail(fmt.Errorf("-lambda %v: must be > 0", *lambda))
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}
	opts := bench.Options{
		Out:     os.Stdout,
		Seed:    *seed,
		MaxIter: *iters,
		Quick:   *quick,
		CSV:     *csv,
		Rho:     *rho,
		Lambda:  *lambda,
	}
	if err := bench.RunExperiment(*experiment, opts); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "psra-bench:", err)
	os.Exit(1)
}
