package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultSet is what `run` writes: every workload's result from one seed,
// measured or traced, with the machine it was taken on.
type resultSet struct {
	Seed      int64        `json:"seed"`
	Draw      int64        `json:"draw"`
	Seconds   float64      `json:"seconds"`
	Traced    bool         `json:"traced"`
	Machine   machineFacts `json:"machine"`
	Workloads []*result    `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAll runs every workload, each in a child process of its own so that
// heap, GC state and peak RSS are per workload, and prints every metric by
// name. It fails if any workload's correctness checks did.
func runAll(args []string) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "run seed: shard-to-rank assignment and row order")
	draw := fs.Int64("draw", 1, "dataset draw")
	seconds := fs.Float64("seconds", 8, "length of each workload's timed window")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics only")
	traceOut := fs.String("trace-out", "", "with --trace, write every workload's spans to this file as JSON lines")
	out := fs.String("out", "", "write the result set to this file")
	only := fs.String("workloads", "", "comma-separated subset of workloads (default: all six)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, cleanup, err := benchTmp()
	if err != nil {
		return err
	}
	defer cleanup()

	set := &resultSet{Seed: *seed, Draw: *draw, Seconds: *seconds, Traced: *trace, Machine: readMachineFacts()}
	fmt.Printf("machine: %s, nproc %d, GOMAXPROCS %d, cgroup cpu quota %q, calibration kernel %.0f ns\n",
		set.Machine.GoVersion, set.Machine.NumCPU, set.Machine.GOMAXPROCS, set.Machine.CPUQuota, set.Machine.CalibNs)
	var spanParts []string
	var bad []string
	for _, w := range workloads(false) {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.name+",") {
			continue
		}
		report := filepath.Join(tmp, w.name+".json")
		childArgs := []string{
			"--workload", w.name, "--seed", fmt.Sprint(*seed), "--draw", fmt.Sprint(*draw),
			"--seconds", fmt.Sprint(*seconds), "--report", report,
		}
		if *trace {
			childArgs = append(childArgs, "--trace", "1")
			if *traceOut != "" {
				part := filepath.Join(tmp, w.name+".spans")
				spanParts = append(spanParts, part)
				childArgs = append(childArgs, "--trace-out", part)
			}
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var r result
		if err := readJSON(report, &r); err != nil {
			// No report: the child could not even produce a result.
			return fmt.Errorf("%s: %v (%v)", w.name, runErr, err)
		}
		set.Workloads = append(set.Workloads, &r)
		if !r.Correct {
			bad = append(bad, w.name)
		}
		fmt.Println()
	}
	if *traceOut != "" {
		if err := concatFiles(*traceOut, spanParts); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("correctness checks failed on: %s", strings.Join(bad, ", "))
	}
	return nil
}

func concatFiles(dst string, parts []string) error {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	for _, p := range parts {
		in, err := os.Open(p)
		if err != nil {
			out.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if err != nil {
			out.Close()
			return err
		}
	}
	return out.Close()
}
