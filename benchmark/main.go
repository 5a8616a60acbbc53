// Command benchmark is the repository's benchmark: wall-clock time to a
// fixed relative objective error on six workloads, through core.Run and
// through a loopback-TCP WLG mesh, with a per-layer budget from a traced
// run. See README.md.
//
//	go run ./benchmark --workload engine-news20-8 --seed 1 --seconds 8 --trace 0
//	go run ./benchmark run --seed 1 --out results.json
//	go run ./benchmark run --seed 1 --trace --trace-out spans.jsonl --out layers.json
//	go run ./benchmark compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	pinProcs()
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runAll(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], os.Stdout)
	default:
		err = runOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the single-workload entry the benchmark driver calls. The last
// line of standard output is the result object; the exit code is non-zero
// if the run could not produce one or any correctness check failed.
func runOne(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "run seed: shard-to-rank assignment and row order")
	draw := fs.Int64("draw", 1, "dataset draw")
	seconds := fs.Float64("seconds", 8, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spansPath := fs.String("trace-out", "", "with --trace 1, write spans to this file as JSON lines")
	report := fs.String("report", "", "also write the full result, samples included, to this file")
	probe := fs.Int("rss-probe", 0, "internal: train once for this many iterations and print the process's peak RSS")
	setup := fs.Int("setup-probe", 0, "internal: set up once and print how long it took")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("--workload is required (or use the run / compare subcommands)")
	}
	if *probe > 0 {
		return rssProbe(*name, *seed, *draw, *probe)
	}
	if *setup > 0 {
		return setupProbe(*name, *seed, *draw)
	}
	o := runOptions{seed: *seed, draw: *draw, seconds: *seconds, trace: *trace != 0, log: os.Stdout}
	if *spansPath != "" && o.trace {
		f, err := os.Create(*spansPath)
		if err != nil {
			return err
		}
		defer f.Close()
		o.spans = f
	}
	r, err := runWorkload(*name, o)
	if err != nil {
		return err
	}
	if *report != "" {
		if err := writeJSON(*report, r); err != nil {
			return err
		}
	}
	fmt.Println(driverLine(r))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d repetitions failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}
