// Command psra-train trains L1-regularized logistic regression with any of
// the implemented consensus-ADMM algorithms on a LIBSVM file or a
// synthetic dataset, printing per-iteration progress:
//
//	psra-train -synth news20 -scale 0.002 -algorithm psra-hgadmm -nodes 8 -wpn 4
//	psra-train -data train.svm -test test.svm -algorithm admmlib -iters 50
//
// The run flags it shares with psra-worker (-nodes, -rho, -elastic, ...)
// are core.RegisterFlags'. -elastic switches from fail-stop to
// fail-survive: deaths shrink the world and training continues, and ranks
// scheduled to return are re-admitted. The chaos flags schedule
// deterministic boundary faults for studying it:
//
//	psra-train -elastic -chaos-kill 3@3,2@5 -chaos-rejoin 3@9,2@12
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	psra "psrahgadmm"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/metrics"
	"psrahgadmm/internal/prof"
	"psrahgadmm/internal/transport"
)

func main() {
	fl := core.RegisterFlags(flag.CommandLine)
	cfg := &fl.Config
	flag.StringVar((*string)(&cfg.Algorithm), "algorithm", string(psra.PSRAHGADMM), "registered algorithm name (see -list-algorithms)")
	flag.IntVar(&cfg.CodecTopK, "codec-topk", 0, "fixed selection size for top-k codecs, overriding the dim/2 default (0 = default)")
	flag.BoolVar(&cfg.CodecAgeScoring, "codec-age-scoring", false, "top-k codecs: weight selection by residual age so starved coordinates eventually ship")
	flag.BoolVar(&cfg.ShardedState, "sharded", false, "block-sharded consensus state: each rank holds only the model blocks its shard touches (flat/star/tree consensus, any sync model)")
	flag.IntVar(&cfg.ShardBlocks, "shard-blocks", 0, "block count for -sharded partitioning (0 = world size)")
	flag.Float64Var(&cfg.Watchdog.ObjectiveFactor, "watchdog-objective-factor", 0, "objective explosion threshold as a multiple of the window floor (0 = default 1e4)")
	flag.IntVar(&cfg.Watchdog.MaxRollbacks, "max-rollbacks", 0, "rollback budget before a watchdog trip aborts the run (0 = default 2)")
	var (
		listAlgos = flag.Bool("list-algorithms", false, "list every registered algorithm with its strategy triple and exit")
		dataPath  = flag.String("data", "", "LIBSVM training file (overrides -synth)")
		testPath  = flag.String("test", "", "LIBSVM test file for accuracy reporting")
		every     = flag.Int("every", 10, "print every k-th iteration")
		jsonOut   = flag.String("json", "", "write the run's record as JSON to this file: history, rollbacks, quarantines, corrupt retries and final membership")
		chaosKill = flag.String("chaos-kill", "", "kill schedule rank@iter[,rank@iter...]: each rank dies at its iteration boundary")
		chaosJoin = flag.String("chaos-rejoin", "", "rejoin schedule rank@iter[,...]: killed ranks return (requires -elastic)")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed (with -chaos-kill or -chaos-corrupt)")
		chaosCorr = flag.Float64("chaos-corrupt", 0, "per-record probability of a seeded wire bit-flip (detected, dropped, and retried)")
		chaosCAt  = flag.String("chaos-corrupt-at", "", "corruption schedule rank@iter[,...]: one frame to each rank is bit-flipped at its iteration")
		chaosNaN  = flag.String("chaos-nan", "", "NaN-injection schedule rank@iter[,...]: each rank's local solve is poisoned once")
		chaosByz  = flag.String("chaos-byzantine", "", "Byzantine schedule rank@iter[-until]:mode[,...]: the rank's contributions are poisoned from iter onward (modes: sign-flip | scale | random | stale-replay); pair with -screen and a robust -aggregator")
		ckDir     = flag.String("checkpoint-dir", "", "directory for periodic snapshots (enables checkpointing)")
		ckEvery   = flag.Int("checkpoint-every", 10, "snapshot every k-th iteration (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "continue from the latest snapshot in -checkpoint-dir (fresh start if none)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	if *listAlgos {
		listAlgorithms()
		return
	}
	if *every < 1 {
		fatal(fmt.Errorf("-every must be a positive integer, got %d", *every))
	}
	if *ckEvery < 1 {
		fatal(fmt.Errorf("-checkpoint-every must be >= 1, got %d", *ckEvery))
	}
	if *chaosKill != "" || *chaosJoin != "" || *chaosCorr != 0 || *chaosCAt != "" || *chaosNaN != "" || *chaosByz != "" {
		plan := &transport.FaultPlan{Seed: *chaosSeed, CorruptProb: *chaosCorr}
		var err error
		if plan.KillAtIteration, err = parseSchedule(*chaosKill); err != nil {
			fatal(fmt.Errorf("-chaos-kill: %w", err))
		}
		if plan.RejoinAtIteration, err = parseSchedule(*chaosJoin); err != nil {
			fatal(fmt.Errorf("-chaos-rejoin: %w", err))
		}
		if plan.CorruptAtIteration, err = parseSchedule(*chaosCAt); err != nil {
			fatal(fmt.Errorf("-chaos-corrupt-at: %w", err))
		}
		if plan.NaNAtIteration, err = parseSchedule(*chaosNaN); err != nil {
			fatal(fmt.Errorf("-chaos-nan: %w", err))
		}
		if plan.ByzantineAtIteration, err = parseByzantine(*chaosByz); err != nil {
			fatal(fmt.Errorf("-chaos-byzantine: %w", err))
		}
		cfg.Faults = plan
	}
	// Before any data is drawn: Train checks the same Config again.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *resume && *ckDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}
	if err := profiles.Start(); err != nil {
		fatal(err)
	}

	train, test, err := loadData(*dataPath, *testPath, fl)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s — %d samples × %d features, %d nonzeros\n",
		train.Name, train.Rows(), train.Dim(), train.NNZ())

	opts := psra.RunOptions{Test: test}
	if *ckDir != "" {
		store, err := psra.NewDirCheckpointStore(*ckDir)
		if err != nil {
			fatal(err)
		}
		opts.Checkpoint = &psra.CheckpointOptions{Store: store, Every: *ckEvery, Resume: *resume}
	}
	opts.OnIteration = func(s psra.IterStat) {
		if s.Iter%*every != 0 && s.Iter != cfg.MaxIter-1 {
			return
		}
		fmt.Printf("iter %3d  objective %-12s accuracy %-8s cal %-10s comm %s\n",
			s.Iter+1, metrics.FormatFloat(s.Objective), metrics.FormatFloat(s.Accuracy),
			metrics.Seconds(s.CalTime), metrics.Seconds(s.CommTime))
	}
	res, err := psra.Train(*cfg, train, opts)
	if stopErr := profiles.Stop(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nfinal objective %s", metrics.FormatFloat(res.FinalObjective()))
	if test != nil {
		fmt.Printf(", test accuracy %s", metrics.FormatFloat(res.FinalAccuracy()))
	}
	fmt.Printf("\nvirtual system time %s (cal %s + comm %s), %s communicated\n",
		metrics.Seconds(res.SystemTime), metrics.Seconds(res.TotalCalTime),
		metrics.Seconds(res.TotalCommTime), metrics.Bytes(res.TotalBytes))
	for _, rb := range res.Rollbacks {
		fmt.Printf("ROLLED BACK: watchdog tripped at iteration %d (%s); resumed from the iteration-%d checkpoint\n",
			rb.TripIter+1, rb.Reason, rb.ToIter)
	}
	for _, ev := range res.Quarantines {
		if ev.Readmitted {
			fmt.Printf("READMITTED: rank %d returned to the live set at iteration %d after consecutive clean probes\n",
				ev.Rank, ev.Iter+1)
		} else {
			fmt.Printf("QUARANTINED: rank %d excluded at iteration %d by the contribution screen\n",
				ev.Rank, ev.Iter+1)
		}
	}
	if res.Degraded {
		fmt.Printf("DEGRADED: %d of %d workers survived (membership epoch %d) — objective is the survivors' optimum\n",
			res.LiveWorkers, cfg.Topo.Size(), res.Epoch)
	} else if res.Epoch > 0 {
		fmt.Printf("RECOVERED: membership changed %d times but the final world is whole — objective is the full-data optimum\n",
			res.Epoch)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("run record written to %s\n", *jsonOut)
	}
}

// parseSchedule parses "rank@iter[,rank@iter...]" into a fault schedule;
// an empty string is a nil map (no faults of that kind).
func parseSchedule(s string) (map[int]int, error) {
	if s == "" {
		return nil, nil
	}
	sched := make(map[int]int)
	for _, entry := range strings.Split(s, ",") {
		rankStr, iterStr, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("entry %q is not rank@iter", entry)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad rank: %w", entry, err)
		}
		iter, err := strconv.Atoi(iterStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad iteration: %w", entry, err)
		}
		if _, dup := sched[rank]; dup {
			return nil, fmt.Errorf("rank %d scheduled twice", rank)
		}
		sched[rank] = iter
	}
	return sched, nil
}

// parseByzantine parses "rank@iter[-until]:mode[,...]" into a Byzantine
// schedule. Every malformed entry is rejected loudly — an unknown mode or a
// duplicated rank silently dropped would turn a chaos experiment into a
// clean run that "proves" robustness it never tested. A rank outside the
// world or a negative iteration is Config.Validate's to refuse.
func parseByzantine(s string) (map[int]transport.ByzantineFault, error) {
	if s == "" {
		return nil, nil
	}
	sched := make(map[int]transport.ByzantineFault)
	for _, entry := range strings.Split(s, ",") {
		rankStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("entry %q is not rank@iter:mode", entry)
		}
		window, mode, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("entry %q is missing its :mode", entry)
		}
		if !transport.ValidByzantineMode(mode) {
			return nil, fmt.Errorf("entry %q: unknown mode %q (want %s)",
				entry, mode, strings.Join(transport.ByzantineModes(), " | "))
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad rank %q", entry, rankStr)
		}
		fromStr, untilStr, bounded := strings.Cut(window, "-")
		from, err := strconv.Atoi(fromStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad iteration %q", entry, fromStr)
		}
		bf := transport.ByzantineFault{Iteration: from, Mode: mode}
		if bounded {
			until, err := strconv.Atoi(untilStr)
			if err != nil || until <= from {
				return nil, fmt.Errorf("entry %q: until %q must be an integer past the start iteration", entry, untilStr)
			}
			bf.Until = until
		}
		if _, dup := sched[rank]; dup {
			return nil, fmt.Errorf("rank %d scheduled twice", rank)
		}
		sched[rank] = bf
	}
	return sched, nil
}

// listAlgorithms prints the registry: every runnable algorithm with the
// (consensus, sync, codec) triple it binds.
func listAlgorithms() {
	for _, v := range psra.Variants() {
		state := ""
		if v.Sharded {
			state = " state=sharded"
		}
		fmt.Printf("%-20s consensus=%-11s sync=%-5s codec=%-10s%s %s\n",
			v.Name, v.Consensus, v.Sync, v.Codec, state, v.Description)
	}
}

func loadData(dataPath, testPath string, fl *core.Flags) (*psra.Dataset, *psra.Dataset, error) {
	if dataPath != "" {
		train, err := readLIBSVM(dataPath, 0)
		if err != nil {
			return nil, nil, err
		}
		var test *psra.Dataset
		if testPath != "" {
			if test, err = readLIBSVM(testPath, train.Dim()); err != nil {
				return nil, nil, err
			}
		}
		return train, test, nil
	}
	cfg, err := fl.Preset()
	if err != nil {
		return nil, nil, err
	}
	return psra.Generate(cfg)
}

func readLIBSVM(path string, dim int) (*psra.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadLIBSVM(f, dim, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psra-train:", err)
	os.Exit(1)
}
